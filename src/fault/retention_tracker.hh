/**
 * @file
 * The retention check: per-block refresh deadlines.
 *
 * PAPER.md section 1 step 4 guarantees that a 3-SETs block is
 * refreshed within its 2.01 s retention. Every tracked write stamps
 * its block with a deadline derived from the write mode's Table I
 * retention (compressed by the system timeScale). A refresh or
 * rewrite in a tracked mode re-stamps the deadline; a rewrite in an
 * untracked (long-retention) mode clears the obligation. One event,
 * armed one tick past the earliest live deadline, sweeps every
 * deadline strictly in the past and counts each as a retention
 * violation.
 *
 * The tracker only observes: it schedules nothing but its own sweep,
 * which fires only when a deadline has been missed, so a run that
 * misses none executes exactly the events of the untracked run.
 */

#ifndef RRM_FAULT_RETENTION_TRACKER_HH
#define RRM_FAULT_RETENTION_TRACKER_HH

#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/auditable.hh"
#include "common/units.hh"
#include "memctrl/address_map.hh"
#include "obs/trace.hh"
#include "pcm/write_mode.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace rrm::ckpt
{
class ChunkWriter;
class ChunkReader;
} // namespace rrm::ckpt

namespace rrm::fault
{

/**
 * Only write modes whose *unscaled* retention is at or below this
 * bound are deadline-tracked. It covers 3-SETs (2.01 s) but not
 * 4-SETs (24.05 s) and above, whose deadlines are orders of magnitude
 * beyond any simulated window.
 */
constexpr double trackRetentionMaxSeconds = 3.0;

class RetentionTracker : public Auditable
{
  public:
    /**
     * @param time_scale Retention compression (SystemConfig::timeScale).
     * @param strict     RRM_CHECK on the first violation.
     * @param memory     Geometry, for the per-channel violation count.
     * @param queue      Event queue the deadline sweep runs on.
     */
    RetentionTracker(double time_scale, bool strict,
                     const memctrl::MemoryParams &memory,
                     EventQueue &queue);
    ~RetentionTracker() override;

    RetentionTracker(const RetentionTracker &) = delete;
    RetentionTracker &operator=(const RetentionTracker &) = delete;

    /**
     * True when `mode` is short-retention enough to be tracked (at
     * most trackRetentionMaxSeconds).
     */
    bool tracks(pcm::WriteMode mode) const;

    /**
     * Ticks a tracked block may stay unrefreshed: the mode's scaled
     * retention. The 2.01 s retention of 3-SETs against the RRM's
     * 2.0 s refresh cadence leaves exactly the 0.01 s guardband
     * (scaled) of margin.
     */
    Tick retentionTicks(pcm::WriteMode mode) const;

    /**
     * A demand write or a refresh of `block` landed in `mode` at
     * `now` (a refresh rewrites the data, so both restart the
     * clock): stamp or clear the deadline and re-arm the sweep.
     */
    void recordWrite(Addr block, pcm::WriteMode mode, Tick now);

    /**
     * Expire every deadline < `now`; each expiry is removed, counted
     * and traced. Returns the number of violations this sweep raised.
     */
    std::uint64_t sweep(Tick now);

    /** Earliest outstanding deadline, if any blocks are tracked. */
    std::optional<Tick> nextDeadline();

    std::size_t trackedCount() const { return deadlines_.size(); }

    void setTraceSink(obs::TraceSink *sink) { traceSink_ = sink; }

    /** Register the `fault.*` stats under `root`. */
    void regStats(stats::StatGroup &root);

    /**
     * @{ Checkpoint the live deadline map (sorted by block for a
     * canonical byte stream) and the armed sweep tick. The restore
     * rebuilds a clean heap — equivalent to the lazily invalidated
     * original, since stale entries are discarded without side
     * effects when they surface — and re-arms the sweep at the saved
     * tick.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    std::string_view auditName() const override { return "fault"; }
    void audit() const override;

  private:
    struct HeapEntry
    {
        Tick deadline;
        Addr block;
        bool
        operator>(const HeapEntry &o) const
        {
            return deadline > o.deadline ||
                   (deadline == o.deadline && block > o.block);
        }
    };

    /** Pop heap entries that no longer match the live deadline map. */
    void dropStaleTop();

    /** Keep one sweep event armed one tick past the next deadline. */
    void armSweep();
    void scheduleSweep(Tick when);

    double timeScale_;
    bool strict_;
    memctrl::AddressMap addressMap_;
    EventQueue &queue_;
    obs::TraceSink *traceSink_ = nullptr;

    /** Live deadline per tracked block. */
    std::unordered_map<Addr, Tick> deadlines_;

    /**
     * Min-heap over (deadline, block) with lazy invalidation:
     * re-stamps leave stale entries behind which are discarded when
     * they reach the top and disagree with the map.
     */
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>>
        heap_;

    /** One pending event for the earliest retention deadline. */
    EventHandle sweepEvent_;
    Tick sweepAt_ = 0;
    bool sweepArmed_ = false;

    stats::Scalar *statStamps_ = nullptr;
    stats::Scalar *statViolations_ = nullptr;
    stats::VectorStat *statViolationsByChannel_ = nullptr;
};

} // namespace rrm::fault

#endif // RRM_FAULT_RETENTION_TRACKER_HH
