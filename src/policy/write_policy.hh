/**
 * @file
 * The pluggable write-policy layer.
 *
 * A WritePolicy owns every per-write decision the simulator makes:
 * which WriteMode a demand write goes out in (and the lookup latency
 * that decision costs), which refreshes are emitted and in which
 * mode, how regions transition between hot and cold, and how the
 * policy reacts to refresh-queue pressure. The System is pure
 * assembly + event loop: it routes LLC write registrations, write-
 * mode queries, and the refresh-pressure signal through this
 * interface and never branches on the scheme again.
 *
 * The paper's evaluation is two points in this policy space —
 * Static-N-SETs (StaticPolicy) and the Region Retention Monitor
 * hybrid (RrmPolicy) — and AdaptiveRrmPolicy adds a feedback-driven
 * third. Adding the next policy is one new file implementing this
 * interface plus one case in the Scheme factory (scheme.cc).
 *
 * Contract notes (see DESIGN.md section 12):
 *  - writeModeFor() must be side-effect free: the System may charge
 *    accessLatency() and account energy before the write queues.
 *  - Refreshes are *requests*: the policy emits them through the
 *    refresh callback and the System's WritePath owns queueing,
 *    overflow, and retry.
 *  - All hooks (probes, sinks, callbacks) may be left unset; a
 *    policy must behave sensibly with any subset wired.
 */

#ifndef RRM_POLICY_WRITE_POLICY_HH
#define RRM_POLICY_WRITE_POLICY_HH

#include <functional>

#include "common/units.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "pcm/write_mode.hh"
#include "rrm/region_monitor.hh"
#include "stats/stats.hh"

namespace rrm::policy
{

/** Per-write decision making, pluggable per scheme. */
class WritePolicy
{
  public:
    /** Refresh-request sink (WritePath side of the System). */
    using RefreshCallback = monitor::RegionMonitor::RefreshCallback;

    /**
     * Refresh-path pressure in [0, 1]: deepest refresh-queue
     * occupancy fraction, 1.0 when refreshes already overflowed.
     */
    using PressureProbe = std::function<double()>;

    WritePolicy() = default;
    virtual ~WritePolicy();

    WritePolicy(const WritePolicy &) = delete;
    WritePolicy &operator=(const WritePolicy &) = delete;

    /** Lifecycle: arm any periodic policy interrupts. */
    virtual void start() {}

    // ---- Demand-write decisions ----

    /** WriteMode for the demand write of `block_addr` (pure). */
    virtual pcm::WriteMode writeModeFor(Addr block_addr) const = 0;

    /** Decision-structure lookup latency charged on the write path. */
    virtual Tick accessLatency() const { return 0; }

    /**
     * Classify a mode for the fast/slow measurement split. Static
     * policies count everything slow (matching the paper's tables:
     * "fast writes" are a hybrid-scheme concept).
     */
    virtual bool
    isFastMode(pcm::WriteMode mode) const
    {
        (void)mode;
        return false;
    }

    // ---- Hot/cold state transitions ----

    /** LLC write registration (hotness bookkeeping input). */
    virtual void
    registerLlcWrite(Addr addr, bool was_dirty)
    {
        (void)addr;
        (void)was_dirty;
    }

    // ---- Refresh emission ----

    /** Sink for the policy's selective/demotion refresh requests. */
    virtual void setRefreshCallback(RefreshCallback cb) { (void)cb; }

    // ---- Pressure hook ----

    /** Continuous refresh-pressure signal (adaptive feedback). */
    virtual void setPressureProbe(PressureProbe probe) { (void)probe; }

    // ---- Wiring (stats, tracing, audits) ----

    virtual void regStats(stats::StatGroup &root) { (void)root; }
    virtual void setTraceSink(obs::TraceSink *sink) { (void)sink; }

    // ---- Observability ----

    /**
     * Preferred stats-sampling cadence (one settled policy epoch);
     * 0 lets the System pick its scheme-independent default.
     */
    virtual Tick preferredSampleInterval() const { return 0; }

    /**
     * Emit the policy's configuration into the run record's config
     * object (key + value at the writer's current slot; may emit
     * nothing). RrmPolicy writes the "rrm" block here byte-for-byte
     * as the pre-policy System did.
     */
    virtual void writeConfigJson(obs::JsonWriter &json) const
    {
        (void)json;
    }

    // ---- Checkpointing ----

    /**
     * @{ Serialize / restore runtime decision state: hot/cold tables,
     * adaptation counters, and the armed next-fire ticks of any
     * periodic policy interrupts. The default is stateless — policies
     * whose decisions are a pure function of config (StaticPolicy)
     * need nothing. restoreCkpt() is only legal before start(); it
     * re-arms restored interrupts at their saved next-fire ticks.
     */
    virtual void saveCkpt(ckpt::ChunkWriter &w) const { (void)w; }
    virtual void restoreCkpt(ckpt::ChunkReader &r) { (void)r; }
    /** @} */

    // ---- Introspection ----

    /**
     * The policy's RegionMonitor, if it has one (sampling columns,
     * results export, deep audits); null for monitor-less policies.
     */
    virtual const monitor::RegionMonitor *monitor() const
    {
        return nullptr;
    }
};

} // namespace rrm::policy

#endif // RRM_POLICY_WRITE_POLICY_HH
