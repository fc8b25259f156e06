/**
 * @file
 * WritePath tests: the writeback buffer and refresh overflow queue
 * extracted from the System. Uses a deliberately tiny controller
 * (one channel, two-entry queues) so the full/overflow paths are easy
 * to hit, with the same hook wiring the System uses.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "memctrl/controller.hh"
#include "system/write_path.hh"

namespace rrm::sys
{
namespace
{

struct Fixture
{
    EventQueue queue;
    memctrl::MemoryParams params;
    std::unique_ptr<memctrl::Controller> controller;
    std::unique_ptr<WritePath> wp;
    std::vector<Addr> refreshed; ///< completed refreshes, in order

    explicit Fixture(unsigned writeback_cap = 2)
    {
        params.numChannels = 1;
        params.readQueueCap = 4;
        params.writeQueueCap = 2;
        params.refreshQueueCap = 2;
        params.writeHighWatermark = 2;
        params.writeLowWatermark = 1;
        controller =
            std::make_unique<memctrl::Controller>(params, queue);
        wp = std::make_unique<WritePath>(*controller, queue,
                                         writeback_cap,
                                         params.busCycle);
        // The System's wiring: freed write slots and finished
        // refreshes pull from the staging queues.
        controller->setWriteIssuedHook([this] {
            wp->drainWritebacks();
        });
        controller->setCompletionHook(
            [this](const memctrl::Request &req, Tick) {
                if (req.kind == memctrl::ReqKind::RrmRefresh) {
                    refreshed.push_back(req.addr);
                    wp->drainRefreshOverflow();
                }
            });
    }

    /** Run the event loop until the controller has fully drained. */
    void
    settle()
    {
        const Tick step = 1000 * params.busCycle;
        for (int i = 0; i < 10000 && !controller->idle(); ++i)
            queue.run(queue.now() + step);
        ASSERT_TRUE(controller->idle());
    }
};

/** Enqueue writes until the controller refuses; return the next addr. */
Addr
fillWriteQueue(Fixture &f)
{
    Addr addr = 0;
    while (f.controller->enqueueWrite(addr, pcm::WriteMode::Sets7))
        addr += 64;
    return addr;
}

/** Enqueue refreshes until the controller refuses; return next addr. */
Addr
fillRefreshQueue(Fixture &f)
{
    Addr addr = 0;
    while (f.controller->enqueueRefresh(addr, pcm::WriteMode::Sets7))
        addr += 64;
    return addr;
}

TEST(WritePath, WritebackFlowsStraightThrough)
{
    Fixture f;
    f.wp->queueWriteback(0, pcm::WriteMode::Sets7);
    // The controller accepted it (possibly issuing it immediately):
    // nothing is left staged and the channel has work.
    EXPECT_EQ(f.wp->writebackDepth(), 0u);
    EXPECT_FALSE(f.wp->writebackFull());
    EXPECT_FALSE(f.controller->idle());
    f.wp->audit();
}

TEST(WritePath, WritebacksBufferWhenControllerIsFull)
{
    Fixture f(/*writeback_cap=*/2);
    // Saturate the single channel's two-entry write queue (requests
    // issue as soon as a bank frees, so fill until refused).
    Addr addr = fillWriteQueue(f);

    f.wp->queueWriteback(addr, pcm::WriteMode::Sets7);
    EXPECT_EQ(f.wp->writebackDepth(), 1u);
    EXPECT_FALSE(f.wp->writebackFull());
    f.wp->queueWriteback(addr + 64, pcm::WriteMode::Sets7);
    EXPECT_EQ(f.wp->writebackDepth(), 2u);
    EXPECT_TRUE(f.wp->writebackFull());
    f.wp->audit();

    // Issued writes free slots; the write-issued hook drains the
    // buffer without any further involvement from the test.
    f.settle();
    EXPECT_EQ(f.wp->writebackDepth(), 0u);
    EXPECT_FALSE(f.wp->writebackFull());
    f.wp->audit();
}

TEST(WritePath, RefreshGoesStraightToTheController)
{
    Fixture f;
    f.wp->submitRefresh(0, pcm::WriteMode::Sets7);
    EXPECT_FALSE(f.wp->refreshOverflowPending());
    EXPECT_FALSE(f.controller->idle());
}

TEST(WritePath, RefreshOverflowDefersAndRetriesUntilDelivered)
{
    Fixture f;
    stats::StatGroup g("sys");
    f.wp->regStats(g);
    // Fill the two-entry refresh queue, then overflow twice.
    const Addr addr = fillRefreshQueue(f);
    f.wp->submitRefresh(addr, pcm::WriteMode::Sets7);
    f.wp->submitRefresh(addr + 64, pcm::WriteMode::Sets7);

    EXPECT_TRUE(f.wp->refreshOverflowPending());
    const auto *overflows =
        dynamic_cast<const stats::Scalar *>(g.find("refreshOverflows"));
    ASSERT_NE(overflows, nullptr);
    EXPECT_EQ(overflows->value(), 2.0);
    f.wp->audit(); // overflow pending => retry must be armed

    // The retry timer / completion hook must deliver every deferred
    // refresh, in order: the obligation is deferred, never dropped.
    f.settle();
    EXPECT_FALSE(f.wp->refreshOverflowPending());
    ASSERT_GE(f.refreshed.size(), 2u);
    EXPECT_EQ(f.refreshed[f.refreshed.size() - 2], addr);
    EXPECT_EQ(f.refreshed.back(), addr + 64);
    f.wp->audit();
}

TEST(WritePath, StatsCountBlockedWritebacksAndOverflows)
{
    Fixture f(/*writeback_cap=*/1);
    stats::StatGroup g("sys");
    f.wp->regStats(g);
    const auto *blocked =
        dynamic_cast<const stats::Scalar *>(g.find("writebackBlocked"));
    const auto *overflows =
        dynamic_cast<const stats::Scalar *>(g.find("refreshOverflows"));
    ASSERT_NE(blocked, nullptr);
    ASSERT_NE(overflows, nullptr);

    Addr waddr = fillWriteQueue(f);
    f.wp->queueWriteback(waddr, pcm::WriteMode::Sets7); // hits cap 1
    EXPECT_EQ(blocked->value(), 1.0);

    Addr raddr = fillRefreshQueue(f);
    f.wp->submitRefresh(raddr, pcm::WriteMode::Sets7);
    EXPECT_EQ(overflows->value(), 1.0);

    f.settle();
}

} // namespace
} // namespace rrm::sys
