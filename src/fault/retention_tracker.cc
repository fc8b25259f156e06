/**
 * @file
 * RetentionTracker implementation.
 */

#include "retention_tracker.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "ckpt/ckpt.hh"
#include "common/check.hh"

namespace rrm::fault
{

RetentionTracker::RetentionTracker(double time_scale, bool strict,
                                   const memctrl::MemoryParams &memory,
                                   EventQueue &queue)
    : timeScale_(time_scale), strict_(strict), addressMap_(memory),
      queue_(queue)
{
    RRM_CHECK(timeScale_ > 0.0, "retention tracker time scale must "
                                "be > 0");
}

RetentionTracker::~RetentionTracker()
{
    if (sweepArmed_)
        queue_.cancel(sweepEvent_);
}

bool
RetentionTracker::tracks(pcm::WriteMode mode) const
{
    return pcm::retentionSeconds(mode) <= trackRetentionMaxSeconds;
}

Tick
RetentionTracker::retentionTicks(pcm::WriteMode mode) const
{
    return secondsToTicks(pcm::retentionSeconds(mode) / timeScale_);
}

void
RetentionTracker::recordWrite(Addr block, pcm::WriteMode mode, Tick now)
{
    if (tracks(mode)) {
        const Tick deadline = now + retentionTicks(mode);
        deadlines_[block] = deadline;
        heap_.push(HeapEntry{deadline, block});
        if (statStamps_)
            ++*statStamps_;
    } else {
        deadlines_.erase(block);
    }
    armSweep();
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
        ++raised;
        if (statViolations_)
            ++*statViolations_;
        if (statViolationsByChannel_)
            statViolationsByChannel_->add(
                addressMap_.decode(top.block).channel);
        RRM_TRACE(traceSink_, now, obs::TraceCategory::Fault,
                  "retentionViolation", RRM_TF("block", top.block),
                  RRM_TF("deadline", top.deadline),
                  RRM_TF("lateTicks", now - top.deadline));
        if (strict_) {
            RRM_CHECK(false, "retention violation on block ", top.block,
                      ": deadline ", top.deadline, " missed at ", now);
        }
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
RetentionTracker::armSweep()
{
    const auto next = nextDeadline();
    if (!next) {
        if (sweepArmed_) {
            queue_.cancel(sweepEvent_);
            sweepArmed_ = false;
        }
        return;
    }
    // Fire one tick past the deadline: a refresh landing exactly on
    // the deadline is still in time.
    const Tick when = *next + 1;
    if (sweepArmed_) {
        if (sweepAt_ == when)
            return;
        queue_.cancel(sweepEvent_);
    }
    scheduleSweep(when);
}

void
RetentionTracker::scheduleSweep(Tick when)
{
    sweepEvent_ = queue_.schedule(when, [this] {
        sweepArmed_ = false;
        sweep(queue_.now());
        armSweep();
    });
    sweepAt_ = when;
    sweepArmed_ = true;
}

void
RetentionTracker::regStats(stats::StatGroup &root)
{
    stats::StatGroup &g = root.addChild("fault");
    statStamps_ = &g.addScalar("retentionStamps",
                               "short-retention deadlines stamped");
    statViolations_ = &g.addScalar(
        "retentionViolations", "blocks whose refresh deadline expired");
    const unsigned channels = addressMap_.params().numChannels;
    std::vector<std::string> bins;
    bins.reserve(channels);
    for (unsigned c = 0; c < channels; ++c)
        bins.push_back("ch" + std::to_string(c));
    statViolationsByChannel_ = &g.addVector(
        "retentionViolationsByChannel",
        "retention violations per memory channel", std::move(bins));
    g.addFormula("retentionViolationRate",
                 "violations per stamped deadline", [this] {
                     const double stamps = statStamps_->value();
                     return stamps > 0.0
                                ? statViolations_->value() / stamps
                                : 0.0;
                 });
}

void
RetentionTracker::saveCkpt(ckpt::ChunkWriter &w) const
{
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
    w.b(sweepArmed_);
    if (sweepArmed_)
        w.u64(sweepAt_);
}

void
RetentionTracker::restoreCkpt(ckpt::ChunkReader &r)
{
    RRM_CHECK(!sweepArmed_, "restoreCkpt() on a tracker with an armed "
                            "sweep");
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
    if (r.b())
        scheduleSweep(r.u64());
}

void
RetentionTracker::audit() const
{
    // Every live deadline must still be represented in the heap; the
    // heap may additionally hold stale (superseded) entries.
    RRM_AUDIT(heap_.size() >= deadlines_.size(),
              "retention heap lost live deadlines");
    RRM_AUDIT(deadlines_.empty() || sweepArmed_,
              "live retention deadlines with no sweep armed");
}

} // namespace rrm::fault
