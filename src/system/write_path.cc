/**
 * @file
 * WritePath implementation.
 */

#include "write_path.hh"

#include "common/check.hh"
#include "common/logging.hh"

namespace rrm::sys
{

WritePath::WritePath(memctrl::Controller &controller, EventQueue &queue,
                     unsigned writeback_cap, Tick retry_interval)
    : controller_(controller), queue_(queue),
      writebackCap_(writeback_cap), retryInterval_(retry_interval),
      writebacks_([this](const PendingWrite &w) {
          return controller_.enqueueWrite(w.addr, w.mode);
      }),
      refreshOverflow_([this](const PendingWrite &w) {
          return controller_.enqueueRefresh(w.addr, w.mode);
      })
{}

void
WritePath::regStats(stats::StatGroup &sys_group)
{
    statWritebackBlocked_ = &sys_group.addScalar(
        "writebackBlocked", "times the writeback buffer filled");
    statRefreshOverflows_ = &sys_group.addScalar(
        "refreshOverflows", "RRM refreshes that found a full queue");
}

void
WritePath::queueWriteback(Addr addr, pcm::WriteMode mode)
{
    writebacks_.push(PendingWrite{addr, mode});
    if (telemetry_ != nullptr)
        telemetry_->writebackOccupancy->add(writebacks_.size());
    if (writebacks_.size() >= writebackCap_ && statWritebackBlocked_)
        ++*statWritebackBlocked_;
    writebacks_.drain();
}

void
WritePath::submitRefresh(Addr addr, pcm::WriteMode mode)
{
    if (controller_.enqueueRefresh(addr, mode))
        return;
    refreshOverflow_.push(PendingWrite{addr, mode});
    if (telemetry_ != nullptr)
        telemetry_->refreshOverflowOccupancy->add(
            refreshOverflow_.size());
    if (statRefreshOverflows_)
        ++*statRefreshOverflows_;
    warn_once("sys.refreshOverflow",
              "refresh queue full; refresh deferred to the "
              "overflow queue (block ", addr, ")");
    scheduleRefreshRetry();
}

void
WritePath::drainRefreshOverflow()
{
    // A re-entrant call (the drain's sink completed synchronously)
    // leaves the retry arming to the outer drain, as ever.
    if (refreshOverflow_.draining())
        return;
    refreshOverflow_.drain();
    // The refresh obligation must not wait on the next completion
    // alone: keep a next-cycle re-attempt armed while any remains.
    scheduleRefreshRetry();
}

void
WritePath::scheduleRefreshRetry()
{
    if (refreshRetryPending_ || refreshOverflow_.empty())
        return;
    refreshRetryPending_ = true;
    queue_.scheduleAfter(retryInterval_, [this] {
        refreshRetryPending_ = false;
        drainRefreshOverflow();
    });
}

void
WritePath::audit() const
{
    RRM_AUDIT(!writebacks_.draining() && !refreshOverflow_.draining(),
              "drain guard left set outside a drain loop");
    RRM_AUDIT(refreshOverflow_.empty() || refreshRetryPending_,
              "deferred refreshes without an armed retry");
}

} // namespace rrm::sys
