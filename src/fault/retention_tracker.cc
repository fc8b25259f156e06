/**
 * @file
 * RetentionTracker implementation.
 */

#include "retention_tracker.hh"

#include <algorithm>
#include <utility>

#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "fault/fault_config.hh"

namespace rrm::fault
{

RetentionTracker::RetentionTracker(double time_scale, double slack_seconds)
    : timeScale_(time_scale), slackTicks_(secondsToTicks(slack_seconds))
{
    RRM_CHECK(timeScale_ > 0.0, "retention tracker time scale must "
                                "be > 0");
}

bool
RetentionTracker::tracks(pcm::WriteMode mode) const
{
    return pcm::retentionSeconds(mode) <= trackRetentionMaxSeconds;
}

Tick
RetentionTracker::retentionTicks(pcm::WriteMode mode) const
{
    return secondsToTicks(pcm::retentionSeconds(mode) / timeScale_) +
           slackTicks_;
}

void
RetentionTracker::stamp(Addr block, pcm::WriteMode mode, Tick now)
{
    const Tick deadline = now + retentionTicks(mode);
    deadlines_[block] = deadline;
    heap_.push(HeapEntry{deadline, block});
    ++stamps_;
}

void
RetentionTracker::recordWrite(Addr block, pcm::WriteMode mode, Tick now)
{
    if (tracks(mode))
        stamp(block, mode, now);
    else
        deadlines_.erase(block);
}

void
RetentionTracker::recordRefresh(Addr block, pcm::WriteMode mode,
                                Tick now)
{
    // A refresh rewrites the block's data, so the deadline semantics
    // match a demand write: short-retention refreshes restart the
    // clock, long-retention rewrites drop the obligation.
    recordWrite(block, mode, now);
}

void
RetentionTracker::clear(Addr block)
{
    deadlines_.erase(block);
}

void
RetentionTracker::dropStaleTop()
{
    while (!heap_.empty()) {
        const HeapEntry &top = heap_.top();
        auto it = deadlines_.find(top.block);
        if (it != deadlines_.end() && it->second == top.deadline)
            return;
        heap_.pop();
    }
}

std::uint64_t
RetentionTracker::sweep(Tick now)
{
    std::uint64_t raised = 0;
    for (dropStaleTop(); !heap_.empty(); dropStaleTop()) {
        const HeapEntry top = heap_.top();
        // A deadline met exactly at `now` is still satisfied; only
        // strictly-late refreshes violate retention.
        if (top.deadline >= now)
            break;
        heap_.pop();
        deadlines_.erase(top.block);
        ++violations_;
        ++raised;
        if (onViolation_)
            onViolation_(top.block, top.deadline, now);
    }
    return raised;
}

std::optional<Tick>
RetentionTracker::nextDeadline()
{
    dropStaleTop();
    if (heap_.empty())
        return std::nullopt;
    return heap_.top().deadline;
}

void
RetentionTracker::setViolationCallback(ViolationCallback cb)
{
    onViolation_ = std::move(cb);
}

void
RetentionTracker::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(stamps_);
    w.u64(violations_);
    // rrm-lint: allow(det-unordered-iter) drained into a vector and
    // sorted before anything order-dependent happens.
    std::vector<std::pair<Addr, Tick>> sorted(deadlines_.begin(),
                                              deadlines_.end());
    std::sort(sorted.begin(), sorted.end());
    w.u64(sorted.size());
    for (const auto &[block, deadline] : sorted) {
        w.u64(block);
        w.u64(deadline);
    }
}

void
RetentionTracker::restoreCkpt(ckpt::ChunkReader &r)
{
    stamps_ = r.u64();
    violations_ = r.u64();
    deadlines_.clear();
    heap_ = {};
    const std::uint64_t n = r.u64();
    // Two u64 fields per entry: never reserve past what the payload
    // can hold.
    if (n > r.remaining() / 16)
        throw ckpt::CkptError("retention checkpoint claims " +
                              std::to_string(n) + " deadlines in " +
                              std::to_string(r.remaining()) +
                              " payload bytes");
    deadlines_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr block = r.u64();
        const Tick deadline = r.u64();
        if (!deadlines_.emplace(block, deadline).second)
            throw ckpt::CkptError(
                "retention checkpoint stamps block " +
                std::to_string(block) + " twice");
        heap_.push(HeapEntry{deadline, block});
    }
}

void
RetentionTracker::audit() const
{
    // Every live deadline must still be represented in the heap; the
    // heap may additionally hold stale (superseded) entries.
    RRM_AUDIT(heap_.size() >= deadlines_.size(),
              "retention heap lost live deadlines");
}

} // namespace rrm::fault
