/**
 * @file
 * The adaptive RRM write policy: the paper's RRM plus a per-decay-
 * epoch feedback loop on hot_threshold (see AdaptiveRrmConfig for
 * the law). The RegionMonitor itself is unchanged — adaptation uses
 * only its public runtime-threshold actuator and registration
 * counters, so the legacy RRM scheme stays byte-identical.
 */

#ifndef RRM_POLICY_ADAPTIVE_RRM_POLICY_HH
#define RRM_POLICY_ADAPTIVE_RRM_POLICY_HH

#include "policy/adaptive_config.hh"
#include "policy/rrm_policy.hh"

namespace rrm::policy
{

/** RRM with pressure/reuse-driven hot_threshold adaptation. */
class AdaptiveRrmPolicy final : public RrmPolicy
{
  public:
    AdaptiveRrmPolicy(const monitor::RrmConfig &config, EventQueue &queue);

    void setPressureProbe(PressureProbe probe) override
    {
        pressureProbe_ = std::move(probe);
    }

    void regStats(stats::StatGroup &root) override;
    void writeConfigJson(obs::JsonWriter &json) const override;

    /** @{ Monitor state plus the feedback law's epoch snapshots. */
    void saveCkpt(ckpt::ChunkWriter &w) const override;
    void restoreCkpt(ckpt::ChunkReader &r) override;
    /** @} */

    /** The threshold the feedback law is currently holding. */
    unsigned currentHotThreshold() const
    {
        return monitor_->hotThreshold();
    }

    /** Force one adaptation step outside the decay cadence (tests). */
    void adaptNow() { onDecayEpoch(); }

  private:
    void onDecayEpoch();

    using Law = AdaptiveRrmConfig;

    unsigned baseThreshold_;
    PressureProbe pressureProbe_;

    // Registration counter snapshots for per-epoch reuse deltas.
    std::uint64_t lastLookups_ = 0;
    std::uint64_t lastHotHits_ = 0;

    stats::Scalar *statRaises_ = nullptr;
    stats::Scalar *statDecays_ = nullptr;
};

} // namespace rrm::policy

#endif // RRM_POLICY_ADAPTIVE_RRM_POLICY_HH
