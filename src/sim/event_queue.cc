/**
 * @file
 * EventQueue (arena + calendar queue) and PeriodicTask implementations.
 */

#include "event_queue.hh"

#include <utility>

namespace rrm
{

void
EventQueue::heapPush(std::vector<QEntry> &heap, const QEntry &e)
{
    heap.push_back(e);
    // Sift up.
    std::size_t i = heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!heap[parent].laterThan(heap[i]))
            break;
        std::swap(heap[parent], heap[i]);
        i = parent;
    }
}

EventQueue::QEntry
EventQueue::heapPop(std::vector<QEntry> &heap)
{
    RRM_CHECK(!heap.empty(), "pop from an empty event heap");
    const QEntry top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    // Sift down.
    std::size_t i = 0;
    const std::size_t n = heap.size();
    while (true) {
        const std::size_t l = 2 * i + 1;
        const std::size_t r = 2 * i + 2;
        std::size_t smallest = i;
        if (l < n && heap[smallest].laterThan(heap[l]))
            smallest = l;
        if (r < n && heap[smallest].laterThan(heap[r]))
            smallest = r;
        if (smallest == i)
            break;
        std::swap(heap[i], heap[smallest]);
        i = smallest;
    }
    return top;
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != EventHandle::invalidSlot) {
        const std::uint32_t slot = freeHead_;
        freeHead_ = pool_[slot].next;
        pool_[slot].next = EventHandle::invalidSlot;
        return slot;
    }
    RRM_CHECK(pool_.size() < EventHandle::invalidSlot,
              "event arena exhausted the 32-bit slot space");
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Event &ev = pool_[slot];
    ++ev.gen; // invalidate outstanding handles before slot reuse
    ev.cb.reset();
    ev.cancelled = false;
    ev.next = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::insertEntry(const QEntry &e)
{
    if (e.when < frontierEnd_) {
        heapPush(frontier_, e);
    } else if (e.when - frontierEnd_ < kWheelSpan) {
        buckets_[bucketIndex(e.when)].push_back(e);
        ++wheelCount_;
    } else {
        heapPush(overflow_, e);
    }
}

bool
EventQueue::advanceFrontier()
{
    if (wheelCount_ == 0) {
        if (overflow_.empty())
            return false;
        const Tick top = overflow_.front().when;
        if (top > maxTick - kWheelSpan - kBucketWidth) {
            // Degenerate far-future events near the end of tick
            // space: bucket arithmetic would wrap, so serve the
            // remainder straight from the exact frontier heap.
            frontierEnd_ = maxTick;
            while (!overflow_.empty())
                heapPush(frontier_, heapPop(overflow_));
            return true;
        }
        // The wheel is empty: jump its window forward so the next
        // occupied segment is the overflow top's.
        frontierEnd_ = top & ~(kBucketWidth - 1);
    }
    // Migrate overflow entries that now fall inside the horizon.
    while (!overflow_.empty() &&
           overflow_.front().when - frontierEnd_ < kWheelSpan) {
        const QEntry e = heapPop(overflow_);
        buckets_[bucketIndex(e.when)].push_back(e);
        ++wheelCount_;
    }
    // Open the segment [frontierEnd_, frontierEnd_ + width): its
    // bucket holds exactly the wheel entries in that range.
    std::vector<QEntry> &bucket = buckets_[bucketIndex(frontierEnd_)];
    for (const QEntry &e : bucket)
        heapPush(frontier_, e);
    wheelCount_ -= bucket.size();
    bucket.clear();
    frontierEnd_ += kBucketWidth;
    return true;
}

bool
EventQueue::ensureNext()
{
    for (;;) {
        while (frontier_.empty()) {
            if (!advanceFrontier())
                return false;
        }
        const std::uint32_t slot = frontier_.front().slot;
        if (!pool_[slot].cancelled)
            return true;
        // Purge the cancelled entry: the arena slot is recycled the
        // moment its queue entry surfaces, keeping size() exact.
        heapPop(frontier_);
        RRM_CHECK(cancelledPending_ > 0,
                  "cancelled-entry bookkeeping underflow");
        --cancelledPending_;
        freeSlot(slot);
    }
}

EventHandle
EventQueue::schedule(Tick when, EventCallback cb, EventPriority prio)
{
    RRM_CHECK(when >= now_, "scheduling into the past: when=", when,
              " now=", now_);
    RRM_CHECK(static_cast<bool>(cb), "scheduling a null callback");
    const std::uint32_t slot = allocSlot();
    Event &ev = pool_[slot];
    ev.when = when;
    ev.seq = nextSeq_++;
    ev.prio = static_cast<std::int32_t>(prio);
    ev.cb = std::move(cb);
    insertEntry(QEntry{when, ev.seq, slot, ev.prio});
    ++live_;
    if (telemetry_ != nullptr) {
        telemetry_->scheduleLatency->add(
            static_cast<std::uint64_t>(when - now_));
        telemetry_->queueDepth->add(size());
    }
    return EventHandle{slot, ev.gen};
}

void
EventQueue::cancel(EventHandle h)
{
    if (h.slot >= pool_.size())
        return;
    Event &ev = pool_[h.slot];
    if (ev.gen != h.gen || ev.cancelled)
        return; // already executed, recycled, or cancelled
    ev.cancelled = true;
    ev.cb.reset(); // release captured resources eagerly
    ++cancelledPending_;
    RRM_CHECK(live_ > 0, "cancel with no live events");
    --live_;
}

std::uint64_t
EventQueue::run(Tick until, std::uint64_t max_events)
{
    std::uint64_t count = 0;
    bool capped = false;
    while (ensureNext()) {
        if (frontier_.front().when > until)
            break;
        if (count >= max_events) {
            capped = true;
            break;
        }
        const QEntry e = heapPop(frontier_);
        RRM_CHECK(e.when >= now_, "event queue yielded a past event");
        EventCallback cb = std::move(pool_[e.slot].cb);
        freeSlot(e.slot);
        --live_;
        now_ = e.when;
        ++executed_;
        ++count;
        if (telemetry_ != nullptr)
            telemetry_->executedByPriority->add(
                EventQueueTelemetry::priorityBin(e.prio));
        cb();
    }
    if (!capped && until != maxTick && until > now_)
        now_ = until;
    return count;
}

bool
EventQueue::step()
{
    if (!ensureNext())
        return false;
    const QEntry e = heapPop(frontier_);
    EventCallback cb = std::move(pool_[e.slot].cb);
    freeSlot(e.slot);
    --live_;
    now_ = e.when;
    ++executed_;
    if (telemetry_ != nullptr)
        telemetry_->executedByPriority->add(
            EventQueueTelemetry::priorityBin(e.prio));
    cb();
    return true;
}

void
EventQueue::audit() const
{
    RRM_AUDIT(now_ >= lastAuditedNow_,
              "simulated time moved backwards: now=", now_,
              " previously audited=", lastAuditedNow_);
    lastAuditedNow_ = now_;

    std::vector<bool> queued(pool_.size(), false);
    std::size_t entries = 0;
    std::size_t cancelled_seen = 0;

    const auto checkEntry = [&](const QEntry &e, const char *where) {
        ++entries;
        RRM_AUDIT(e.slot < pool_.size(), where, " entry references ",
                  "slot ", e.slot, " outside the arena");
        if (e.slot >= pool_.size())
            return;
        RRM_AUDIT(!queued[e.slot], "arena slot ", e.slot,
                  " is referenced by more than one queue entry");
        queued[e.slot] = true;
        const Event &ev = pool_[e.slot];
        RRM_AUDIT(ev.seq == e.seq && ev.when == e.when,
                  where, " entry disagrees with its arena record ",
                  "(slot ", e.slot, ")");
        if (ev.cancelled) {
            ++cancelled_seen;
        } else {
            RRM_AUDIT(e.when >= now_, "pending event in slot ", e.slot,
                      " scheduled at ", e.when, " before now=", now_);
            RRM_AUDIT(static_cast<bool>(ev.cb), "pending event in slot ",
                      e.slot, " has a null callback");
        }
        RRM_AUDIT(ev.seq < nextSeq_, where, " entry sequence ", e.seq,
                  " was never issued (nextSeq=", nextSeq_, ")");
    };

    const auto checkHeap = [&](const std::vector<QEntry> &heap,
                               const char *where) {
        for (std::size_t i = 0; i < heap.size(); ++i) {
            checkEntry(heap[i], where);
            if (i > 0) {
                RRM_AUDIT(!heap[(i - 1) / 2].laterThan(heap[i]),
                          where, " heap property violated at index ",
                          i);
            }
        }
    };

    checkHeap(frontier_, "frontier");
    for (const QEntry &e : frontier_) {
        RRM_AUDIT(e.when < frontierEnd_ || frontierEnd_ == maxTick,
                  "frontier entry at ", e.when,
                  " beyond the frontier boundary ", frontierEnd_);
    }

    std::size_t wheel_entries = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        for (const QEntry &e : buckets_[b]) {
            checkEntry(e, "wheel");
            ++wheel_entries;
            RRM_AUDIT(bucketIndex(e.when) == b, "wheel entry at ",
                      e.when, " hashed into the wrong bucket ", b);
            RRM_AUDIT(e.when >= frontierEnd_ &&
                          e.when - frontierEnd_ < kWheelSpan,
                      "wheel entry at ", e.when,
                      " outside the wheel window starting at ",
                      frontierEnd_);
        }
    }
    RRM_AUDIT(wheel_entries == wheelCount_, "wheel holds ",
              wheel_entries, " entries but wheelCount_ says ",
              wheelCount_);

    checkHeap(overflow_, "overflow");
    for (const QEntry &e : overflow_) {
        RRM_AUDIT(e.when >= frontierEnd_ &&
                      e.when - frontierEnd_ >= kWheelSpan,
                  "overflow entry at ", e.when,
                  " inside the wheel horizon starting at ",
                  frontierEnd_);
    }

    RRM_AUDIT(entries == live_ + cancelledPending_,
              "queue holds ", entries, " entries but live=", live_,
              " + cancelled=", cancelledPending_, " disagree");
    RRM_AUDIT(cancelled_seen == cancelledPending_,
              "found ", cancelled_seen, " cancelled entries but ",
              "cancelledPending_ says ", cancelledPending_);

    // The freelist and the queued slots must tile the arena exactly.
    std::size_t free_count = 0;
    for (std::uint32_t s = freeHead_;
         s != EventHandle::invalidSlot && free_count <= pool_.size();
         s = pool_[s].next) {
        RRM_AUDIT(s < pool_.size(), "freelist references slot ", s,
                  " outside the arena");
        if (s >= pool_.size())
            break;
        RRM_AUDIT(!queued[s], "arena slot ", s,
                  " is both queued and on the freelist");
        ++free_count;
    }
    RRM_AUDIT(free_count + entries == pool_.size(), "arena has ",
              pool_.size(), " slots but ", free_count, " free + ",
              entries, " queued");
}

PeriodicTask::PeriodicTask(EventQueue &queue, Tick period, Tick first,
                           EventCallback cb, EventPriority prio)
    : queue_(queue), period_(period), cb_(std::move(cb)), prio_(prio)
{
    RRM_CHECK(period_ > 0, "periodic task needs a positive period");
    RRM_CHECK(static_cast<bool>(cb_), "periodic task needs a callback");
    running_ = true;
    arm(first);
}

void
PeriodicTask::arm(Tick when)
{
    nextFireAt_ = when;
    pending_ = queue_.schedule(
        when,
        [this] {
            // Re-arm before invoking so the callback can stop() us.
            arm(queue_.now() + period_);
            cb_();
        },
        prio_);
}

void
PeriodicTask::stop()
{
    if (running_) {
        queue_.cancel(pending_);
        running_ = false;
    }
}

} // namespace rrm
