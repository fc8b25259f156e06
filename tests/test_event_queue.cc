/**
 * @file
 * Tests for the event-driven simulation kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/check.hh"
#include "sim/event_queue.hh"

namespace rrm
{
namespace
{

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(300, [&] { order.push_back(3); });
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(200, [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 300u);
}

TEST(EventQueue, PriorityBreaksTiesWithinTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(50, [&] { order.push_back(2); },
               EventPriority::Default);
    q.schedule(50, [&] { order.push_back(1); },
               EventPriority::RefreshInterrupt);
    q.schedule(50, [&] { order.push_back(3); }, EventPriority::CpuTick);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTickAndPriority)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAndAdvancesTime)
{
    EventQueue q;
    int fired = 0;
    q.schedule(100, [&] { ++fired; });
    q.schedule(200, [&] { ++fired; });
    EXPECT_EQ(q.run(150), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 150u);
    EXPECT_EQ(q.run(200), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(100, [&] { ++fired; });
    q.run(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_THROW(q.schedule(50, [] {}), check::CheckError);
}

TEST(EventQueue, NullCallbackPanics)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(10, EventQueue::Callback{}), check::CheckError);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int fired = 0;
    const auto id = q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.cancel(id);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelUnknownHandleIsNoOp)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.cancel(EventHandle{});                // never issued
    q.cancel(EventHandle{12345u, 7u});      // slot outside the arena
    EXPECT_EQ(q.run(), 1u);
}

TEST(EventQueue, CancelStaleHandleIsNoOp)
{
    EventQueue q;
    int fired = 0;
    const EventHandle h = q.schedule(10, [&] { ++fired; });
    EXPECT_EQ(q.run(), 1u);
    q.cancel(h); // already executed: generation check rejects it
    q.schedule(20, [&] { ++fired; }); // likely reuses the slot
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ReentrantSchedulingFromCallback)
{
    EventQueue q;
    std::vector<Tick> fire_times;
    q.schedule(10, [&] {
        fire_times.push_back(q.now());
        q.schedule(15, [&] { fire_times.push_back(q.now()); });
        // Same-tick reentrant scheduling runs later this tick.
        q.schedule(10, [&] { fire_times.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(fire_times, (std::vector<Tick>{10, 10, 15}));
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] { ++fired; });
    q.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.eventsExecuted(), 10u);
}

TEST(EventQueue, SizeTracksPending)
{
    EventQueue q;
    const auto a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
}

// ---- Calendar-queue geometry boundaries ----
//
// The kernel hashes near events into 2^14-tick buckets on a
// 2048-bucket wheel (span 2^25 = 33554432 ticks); farther events sit
// in an overflow heap until the wheel rotates under them. These tests
// straddle each boundary and pin the (tick, priority, sequence) order
// across the structures.

constexpr Tick kBucket = Tick(1) << 14;
constexpr Tick kSpan = kBucket * 2048;

TEST(EventQueue, OrderAcrossBucketBoundary)
{
    EventQueue q;
    std::vector<int> order;
    // Last tick of bucket 0 and first tick of bucket 1, scheduled in
    // reverse.
    q.schedule(kBucket, [&] { order.push_back(2); });
    q.schedule(kBucket - 1, [&] { order.push_back(1); });
    q.schedule(kBucket + 1, [&] { order.push_back(3); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinOneBucketDifferentTicks)
{
    EventQueue q;
    std::vector<int> order;
    // Same bucket, distinct ticks, inserted out of order: the bucket
    // sort must restore tick order.
    q.schedule(kBucket / 2, [&] { order.push_back(2); });
    q.schedule(kBucket / 4, [&] { order.push_back(1); });
    q.schedule(kBucket - 1, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, OrderAcrossWheelHorizon)
{
    EventQueue q;
    std::vector<int> order;
    // One event beyond the wheel span (overflow heap) and one inside;
    // the overflow event must run second, after the wheel rotates.
    q.schedule(kSpan + 10, [&] { order.push_back(2); });
    q.schedule(kSpan - 10, [&] { order.push_back(1); });
    q.schedule(2 * kSpan + 5, [&] { order.push_back(3); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 2 * kSpan + 5);
}

TEST(EventQueue, TieOrderSpansHorizonStructures)
{
    EventQueue q;
    std::vector<int> order;
    // Two events at the SAME far tick: the first lands in the
    // overflow heap; after it migrates, sequence order must still
    // break the tie in scheduling order.
    const Tick far = kSpan + 123;
    q.schedule(far, [&] { order.push_back(1); });
    q.schedule(far, [&] { order.push_back(2); });
    // A near event whose execution brings `far` within the horizon.
    q.schedule(far - kSpan / 2, [&] { order.push_back(0); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, PriorityBeatsSequenceAcrossHorizon)
{
    EventQueue q;
    std::vector<int> order;
    const Tick far = kSpan + kBucket;
    q.schedule(far, [&] { order.push_back(2); },
               EventPriority::Default);
    q.schedule(far, [&] { order.push_back(1); },
               EventPriority::RefreshInterrupt);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EmptyWheelJumpsStraightToFarEvent)
{
    EventQueue q;
    bool fired = false;
    q.schedule(5 * kSpan + 7, [&] { fired = true; });
    EXPECT_EQ(q.run(), 1u);
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.now(), 5 * kSpan + 7);
}

TEST(EventQueue, ReentrantSchedulingAcrossBoundaries)
{
    EventQueue q;
    std::vector<Tick> fired;
    // Each callback schedules the next one a full span ahead: the
    // frontier must keep migrating overflow events indefinitely.
    std::function<void(int)> chain = [&](int depth) {
        fired.push_back(q.now());
        if (depth < 4) {
            q.schedule(q.now() + kSpan + 1,
                       [&chain, depth] { chain(depth + 1); });
        }
    };
    q.schedule(1, [&chain] { chain(0); });
    EXPECT_EQ(q.run(), 5u);
    ASSERT_EQ(fired.size(), 5u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], fired[i - 1] + kSpan + 1);
}

TEST(EventQueue, CancelledFarEventNeverFires)
{
    EventQueue q;
    bool fired = false;
    const auto h = q.schedule(kSpan + 99, [&] { fired = true; });
    q.schedule(10, [] {});
    q.cancel(h);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.now(), 10u);
}

TEST(PeriodicTask, FiresAtFixedIntervals)
{
    EventQueue q;
    std::vector<Tick> fires;
    PeriodicTask task(q, 100, 50, [&] { fires.push_back(q.now()); });
    q.run(375);
    EXPECT_EQ(fires, (std::vector<Tick>{50, 150, 250, 350}));
    EXPECT_TRUE(task.running());
}

TEST(PeriodicTask, StopCancelsFutureFirings)
{
    EventQueue q;
    int fires = 0;
    PeriodicTask task(q, 100, 100, [&] { ++fires; });
    q.run(250);
    task.stop();
    q.run(1000);
    EXPECT_EQ(fires, 2);
    EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopFromInsideCallback)
{
    EventQueue q;
    int fires = 0;
    PeriodicTask task(q, 10, 10, [&] {
        ++fires;
        if (fires == 3)
            task.stop();
    });
    q.run(1000);
    EXPECT_EQ(fires, 3);
}

TEST(PeriodicTask, DestructorStops)
{
    EventQueue q;
    int fires = 0;
    {
        PeriodicTask task(q, 10, 10, [&] { ++fires; });
        q.run(25);
    }
    q.run(1000);
    EXPECT_EQ(fires, 2);
}

TEST(PeriodicTask, ZeroPeriodPanics)
{
    EventQueue q;
    EXPECT_THROW(PeriodicTask(q, 0, 10, [] {}), check::CheckError);
}

} // namespace
} // namespace rrm
