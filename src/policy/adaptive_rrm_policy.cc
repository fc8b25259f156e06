/**
 * @file
 * AdaptiveRrmPolicy implementation.
 */

#include "adaptive_rrm_policy.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"

namespace rrm::policy
{

AdaptiveRrmPolicy::AdaptiveRrmPolicy(const monitor::RrmConfig &config,
                                     EventQueue &queue)
    : RrmPolicy(config, queue), baseThreshold_(config.hotThreshold)
{
    monitor_->setDecayEpochHook([this] { onDecayEpoch(); });
}

void
AdaptiveRrmPolicy::regStats(stats::StatGroup &root)
{
    RrmPolicy::regStats(root);
    auto &g = root.addChild("policy");
    statRaises_ = &g.addScalar(
        "thresholdRaises", "hot-threshold raises by the feedback law");
    statDecays_ = &g.addScalar(
        "thresholdDecays", "hot-threshold decays by the feedback law");
    g.addFormula("hotThreshold", "current adapted hot threshold",
                 [this] {
                     return static_cast<double>(
                         monitor_->hotThreshold());
                 });
}

void
AdaptiveRrmPolicy::writeConfigJson(obs::JsonWriter &json) const
{
    RrmPolicy::writeConfigJson(json);
    json.key("adaptive");
    json.beginObject();
    json.field("pressureHigh", Law::pressureHigh);
    json.field("pressureLow", Law::pressureLow);
    json.field("reuseHigh", Law::reuseHigh);
    json.field("reuseDecay", Law::reuseDecay);
    json.field("reuseLow", Law::reuseLow);
    json.field("maxThresholdMultiple", Law::maxThresholdMultiple);
    json.field("baseHotThreshold", baseThreshold_);
    json.endObject();
}

void
AdaptiveRrmPolicy::saveCkpt(ckpt::ChunkWriter &w) const
{
    RrmPolicy::saveCkpt(w);
    // baseThreshold_ is config-derived; the adapted threshold itself
    // travels inside the monitor's section.
    w.u64(lastLookups_);
    w.u64(lastHotHits_);
}

void
AdaptiveRrmPolicy::restoreCkpt(ckpt::ChunkReader &r)
{
    RrmPolicy::restoreCkpt(r);
    lastLookups_ = r.u64();
    lastHotHits_ = r.u64();
}

void
AdaptiveRrmPolicy::onDecayEpoch()
{
    const double pressure = pressureProbe_ ? pressureProbe_() : 0.0;

    const std::uint64_t lookups = monitor_->registrationLookups();
    const std::uint64_t hot_hits = monitor_->registrationHotHits();
    const std::uint64_t d_lookups = lookups - lastLookups_;
    const std::uint64_t d_hot = hot_hits - lastHotHits_;
    lastLookups_ = lookups;
    lastHotHits_ = hot_hits;
    // Hot reuse: share of this epoch's registrations that landed in
    // an already-hot region. An idle epoch carries no evidence.
    const double reuse = d_lookups != 0
                             ? static_cast<double>(d_hot) /
                                   static_cast<double>(d_lookups)
                             : 0.0;
    const bool active = d_lookups != 0;

    const unsigned cap = baseThreshold_ * Law::maxThresholdMultiple;
    const unsigned floor = active && reuse < Law::reuseLow
                               ? std::min(cap, baseThreshold_ * 2)
                               : baseThreshold_;

    const unsigned current = monitor_->hotThreshold();
    unsigned next = current;
    if (pressure >= Law::pressureHigh ||
        (active && reuse >= Law::reuseHigh)) {
        // Saturated refresh path, or a mature hot set whose marginal
        // promotions add obligation without adding coverage.
        next = std::min(cap, current * 2);
    } else if (pressure <= Law::pressureLow &&
               (!active || reuse < Law::reuseDecay) &&
               current > floor) {
        next = std::max(floor, current / 2);
    }
    next = std::max(next, floor);

    if (next == current)
        return;
    if (next > current) {
        if (statRaises_)
            ++*statRaises_;
    } else if (statDecays_) {
        ++*statDecays_;
    }
    monitor_->setHotThreshold(next);
}

} // namespace rrm::policy
