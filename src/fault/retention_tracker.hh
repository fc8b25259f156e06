/**
 * @file
 * Retention-expiry model: per-block refresh deadlines.
 *
 * Every tracked write stamps its block with a deadline derived from
 * the write mode's Table I retention (compressed by the system
 * timeScale, plus an optional unscaled slack). A refresh or rewrite
 * in a tracked mode re-stamps the deadline; a rewrite in an untracked
 * (long-retention) mode clears the obligation. sweep() expires every
 * deadline strictly in the past and reports each as a retention
 * violation.
 */

#ifndef RRM_FAULT_RETENTION_TRACKER_HH
#define RRM_FAULT_RETENTION_TRACKER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/units.hh"
#include "pcm/write_mode.hh"

namespace rrm::ckpt
{
class ChunkWriter;
class ChunkReader;
} // namespace rrm::ckpt

namespace rrm::fault
{

class RetentionTracker
{
  public:
    /** (block, missed deadline, sweep time). */
    using ViolationCallback = std::function<void(Addr, Tick, Tick)>;

    RetentionTracker(double time_scale, double slack_seconds);

    /**
     * True when `mode` is short-retention enough to be tracked (at
     * most trackRetentionMaxSeconds).
     */
    bool tracks(pcm::WriteMode mode) const;

    /**
     * Ticks a tracked block may stay unrefreshed: the mode's scaled
     * retention plus the configured slack. The 2.01 s retention of
     * 3-SETs against the RRM's 2.0 s refresh cadence leaves exactly
     * the 0.01 s guardband (scaled) of margin.
     */
    Tick retentionTicks(pcm::WriteMode mode) const;

    /** A demand write landed: stamp or clear the block's deadline. */
    void recordWrite(Addr block, pcm::WriteMode mode, Tick now);

    /** A refresh landed: same deadline semantics as a write. */
    void recordRefresh(Addr block, pcm::WriteMode mode, Tick now);

    /** Drop any obligation for `block` (line retired). */
    void clear(Addr block);

    /**
     * Expire every deadline < `now`; each expiry is removed, counted
     * and reported through the violation callback. Returns the number
     * of violations raised by this sweep.
     */
    std::uint64_t sweep(Tick now);

    /** Earliest outstanding deadline, if any blocks are tracked. */
    std::optional<Tick> nextDeadline();

    std::size_t trackedCount() const { return deadlines_.size(); }
    std::uint64_t stamps() const { return stamps_; }
    std::uint64_t violations() const { return violations_; }

    void setViolationCallback(ViolationCallback cb);

    /**
     * @{ Checkpoint the live deadline map (sorted by block for a
     * canonical byte stream) and the stamp/violation counters. The
     * restore rebuilds a clean heap — equivalent to the lazily
     * invalidated original, since stale entries are discarded without
     * side effects when they surface.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    /** Internal-coherence checks, called from FaultManager::audit. */
    void audit() const;

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

    void stamp(Addr block, pcm::WriteMode mode, Tick now);

    /** Pop heap entries that no longer match the live deadline map. */
    void dropStaleTop();

    double timeScale_;
    Tick slackTicks_;

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

    ViolationCallback onViolation_;
    std::uint64_t stamps_ = 0;
    std::uint64_t violations_ = 0;
};

} // namespace rrm::fault

#endif // RRM_FAULT_RETENTION_TRACKER_HH
