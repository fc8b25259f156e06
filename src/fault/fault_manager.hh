/**
 * @file
 * FaultManager: owns the retention-expiry model, the seeded fault
 * injector and every graceful-degradation policy, and exposes the
 * hook surface System wires into the memory path.
 *
 * Fault taxonomy and policy pairing:
 *  - retention violation  -> detection only (stat/trace/strict check)
 *  - transient write fail -> write-verify-and-retry, doubling backoff
 *  - stuck-at hard fault  -> ECP repair budget, then line retirement
 *  - refresh-queue stall  -> injected pressure; the refresh-pressure
 *                            fallback demotes hot regions to slow
 *                            writes until the queues drain
 */

#ifndef RRM_FAULT_FAULT_MANAGER_HH
#define RRM_FAULT_FAULT_MANAGER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/auditable.hh"
#include "common/units.hh"
#include "fault/fault_config.hh"
#include "fault/fault_injector.hh"
#include "fault/repair.hh"
#include "fault/retention_tracker.hh"
#include "memctrl/address_map.hh"
#include "memctrl/controller.hh"
#include "obs/trace.hh"
#include "policy/write_policy.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace rrm::fault
{

class FaultManager : public Auditable
{
  public:
    /** Rewrite callback: reissue a demand write (addr, mode). */
    using RewriteCallback = std::function<void(Addr, pcm::WriteMode)>;

    FaultManager(const FaultConfig &config,
                 const memctrl::MemoryParams &memory, double time_scale,
                 std::uint64_t system_seed, EventQueue &queue,
                 memctrl::Controller &controller,
                 policy::WritePolicy *policy);
    ~FaultManager() override;

    FaultManager(const FaultManager &) = delete;
    FaultManager &operator=(const FaultManager &) = delete;

    /** Arm the stall schedule and the fallback governor. */
    void start();

    /**
     * Physical routing for a block address: the retirement remap.
     * Applied by System to every controller address; cache-fill
     * callbacks keep the logical address.
     */
    Addr translate(Addr block) const { return retirement_.remap(block); }

    /**
     * A block write (demand, rewrite or RRM refresh) was issued at
     * `phys`: count it toward its wear region. Counts are kept only
     * when stuckAtWearThreshold > 0, and only for written regions.
     */
    void recordWrite(Addr phys);

    /**
     * Zero every region's write count (the warmup boundary). Each
     * region keeps its last drawn level, which follows the count down
     * at the region's next completed write without drawing.
     */
    void resetWearCounts();

    /** A demand write completed on the bus. */
    void onWriteCompleted(Addr phys, pcm::WriteMode mode, Tick when);

    /**
     * A timing-invisible (rate-corrected away) refresh was accounted
     * at emission; it satisfies its retention deadline immediately.
     */
    void onRefreshAccounted(Addr phys, pcm::WriteMode mode, Tick now);

    /** A timing-visible refresh completed on the bus. */
    void onRefreshCompleted(Addr phys, pcm::WriteMode mode, Tick when);

    /** Controller refused a refresh (queue full). */
    void onRefreshDropped(Addr phys);

    void setRewriteCallback(RewriteCallback cb);
    void setTraceSink(obs::TraceSink *sink) { traceSink_ = sink; }
    void regStats(stats::StatGroup &root);

    bool fallbackActive() const { return fallbackActive_; }
    const RetentionTracker &retention() const { return retention_; }

    /**
     * Scheduled-but-unfired rewrite (write-retry backoff) events.
     * Nonzero means the fault layer is not quiescent: a checkpoint
     * drain must keep stepping until every rewrite has re-entered the
     * write path and completed.
     */
    unsigned pendingRewriteEvents() const
    {
        return pendingRewriteEvents_;
    }

    /**
     * @{ Checkpoint injector RNG streams, retention deadlines, ECP /
     * retirement maps, retry bookkeeping, per-region wear, fallback
     * governor state, and the armed next-fire ticks of the stall /
     * governor tasks and the retention sweep.
     * restoreCkpt re-arms the periodic tasks in ascending last-arm
     * order (next fire minus period) so coincident-tick fires keep
     * the interrupted run's sequence order, then the sweep; the
     * manager must not have been start()ed.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    std::string_view auditName() const override { return "fault"; }
    void audit() const override;

  private:
    void armRetentionSweep();
    void sweepRetention();
    void maybeDevelopStuckAt(Addr phys, Tick when);
    void handleStuckAt(Addr phys, Tick when);
    void injectRefreshStall();
    void pollRefreshPressure();
    void enterFallback(std::size_t deepest_queue);
    void exitFallback(std::size_t deepest_queue);

    FaultConfig config_;
    double timeScale_;
    EventQueue &queue_;
    memctrl::Controller &controller_;
    policy::WritePolicy *policy_;
    memctrl::AddressMap addressMap_;
    unsigned numChannels_;

    FaultInjector injector_;
    RetentionTracker retention_;
    EcpRepair ecp_;
    LineRetirement retirement_;

    obs::TraceSink *traceSink_ = nullptr;
    RewriteCallback rewrite_;

    /** Outstanding rewrite attempts per faulted block. Ordered:
     *  audits and any future export iterate deterministically. */
    std::map<Addr, unsigned> retryAttempts_;

    /** Stuck-at wear of one written wearRegionBytes region. */
    struct RegionWear
    {
        std::uint64_t writes = 0; ///< issued since the last reset
        std::uint64_t level = 0;  ///< last threshold multiple drawn
    };

    /** Per written region, ordered like retryAttempts_. */
    std::map<std::uint64_t, RegionWear> regionWear_;

    /** Writes recorded since the last reset (the regions' sum). */
    std::uint64_t wearWrites_ = 0;

    /** One pending event for the earliest retention deadline. */
    EventHandle sweepEvent_;
    Tick sweepAt_ = 0;
    bool sweepArmed_ = false;

    std::unique_ptr<PeriodicTask> stallTask_;
    std::unique_ptr<PeriodicTask> governorTask_;
    bool fallbackActive_ = false;
    unsigned saturatedPolls_ = 0;
    unsigned pendingRewriteEvents_ = 0;

    stats::Scalar *statRetentionStamps_ = nullptr;
    stats::Scalar *statRetentionViolations_ = nullptr;
    stats::VectorStat *statViolationsByChannel_ = nullptr;
    stats::Scalar *statTransientWriteFaults_ = nullptr;
    stats::Scalar *statWriteRetries_ = nullptr;
    stats::Scalar *statWritesUnrecovered_ = nullptr;
    stats::Scalar *statStuckAtFaults_ = nullptr;
    stats::Scalar *statStuckAtRepaired_ = nullptr;
    stats::Scalar *statLinesRetired_ = nullptr;
    stats::Scalar *statSpareExhausted_ = nullptr;
    stats::Scalar *statRefreshDropped_ = nullptr;
    stats::Scalar *statRefreshStalls_ = nullptr;
    stats::Scalar *statFallbackEntries_ = nullptr;
    stats::Scalar *statFallbackExits_ = nullptr;
};

} // namespace rrm::fault

#endif // RRM_FAULT_FAULT_MANAGER_HH
