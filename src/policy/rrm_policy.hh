/**
 * @file
 * The RRM write policy: the paper's hybrid scheme, expressed as a
 * WritePolicy that owns a RegionMonitor and delegates every decision
 * to it. Behaviour is byte-frozen by tests/test_policy_golden —
 * this class adds no logic of its own, only the policy-interface
 * adaptation (and the "rrm" config block formerly emitted by the
 * System).
 */

#ifndef RRM_POLICY_RRM_POLICY_HH
#define RRM_POLICY_RRM_POLICY_HH

#include <memory>

#include "policy/write_policy.hh"

namespace rrm::policy
{

/** Region Retention Monitor hybrid (paper Section IV). */
class RrmPolicy : public WritePolicy
{
  public:
    /** @param config Validated RRM configuration (timeScale set). */
    RrmPolicy(const monitor::RrmConfig &config, EventQueue &queue);
    ~RrmPolicy() override;

    void start() override { monitor_->start(); }

    pcm::WriteMode
    writeModeFor(Addr block_addr) const override
    {
        return monitor_->writeModeFor(block_addr);
    }

    Tick accessLatency() const override
    {
        return monitor_->accessLatency();
    }

    bool
    isFastMode(pcm::WriteMode mode) const override
    {
        return mode == config_.fastMode;
    }

    void
    registerLlcWrite(Addr addr, bool was_dirty) override
    {
        monitor_->registerLlcWrite(addr, was_dirty);
    }

    void setRefreshCallback(RefreshCallback cb) override
    {
        monitor_->setRefreshCallback(std::move(cb));
    }

    void regStats(stats::StatGroup &root) override
    {
        monitor_->regStats(root);
    }

    void setTraceSink(obs::TraceSink *sink) override
    {
        monitor_->setTraceSink(sink);
    }

    /** One settled decay epoch per sample row. */
    Tick preferredSampleInterval() const override
    {
        return config_.decayTickInterval();
    }

    void writeConfigJson(obs::JsonWriter &json) const override;

    /** @{ Runtime state lives in the monitor; delegate wholesale. */
    void saveCkpt(ckpt::ChunkWriter &w) const override
    {
        monitor_->saveCkpt(w);
    }

    void restoreCkpt(ckpt::ChunkReader &r) override
    {
        monitor_->restoreCkpt(r);
    }
    /** @} */

    const monitor::RegionMonitor *monitor() const override
    {
        return monitor_.get();
    }

  protected:
    /** As-configured copy: immune to runtime threshold adaptation. */
    monitor::RrmConfig config_;
    std::unique_ptr<monitor::RegionMonitor> monitor_;
};

} // namespace rrm::policy

#endif // RRM_POLICY_RRM_POLICY_HH
