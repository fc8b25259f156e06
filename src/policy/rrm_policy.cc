/**
 * @file
 * RrmPolicy implementation.
 */

#include "rrm_policy.hh"

namespace rrm::policy
{

RrmPolicy::RrmPolicy(const monitor::RrmConfig &config, EventQueue &queue)
    : config_(config),
      monitor_(std::make_unique<monitor::RegionMonitor>(config, queue))
{}

RrmPolicy::~RrmPolicy() = default;

void
RrmPolicy::writeConfigJson(obs::JsonWriter &json) const
{
    json.key("rrm");
    json.beginObject();
    json.field("regionBytes", config_.regionBytes);
    json.field("blockBytes", blockBytes);
    json.field("numSets", config_.numSets);
    json.field("assoc", config_.assoc);
    json.field("hotThreshold", config_.hotThreshold);
    json.field("dirtyWriteFilter", config_.dirtyWriteFilter);
    json.field("fastSets", pcm::setIterations(config_.fastMode));
    json.field("slowSets", pcm::setIterations(config_.slowMode));
    json.field("shortRetentionIntervalTicks",
               config_.shortRetentionInterval());
    json.field("decayTickIntervalTicks", config_.decayTickInterval());
    json.field("storageBytes", config_.storageBytes());
    json.endObject();
}

} // namespace rrm::policy
