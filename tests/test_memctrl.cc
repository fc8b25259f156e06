/**
 * @file
 * Tests for the address map, channel scheduler, and controller:
 * bank timing, queue priorities, write drain, and write pausing.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "common/random.hh"
#include "memctrl/controller.hh"

namespace rrm::memctrl
{
namespace
{

MemoryParams
defaultParams()
{
    return MemoryParams{};
}

TEST(AddressMap, DecodesWithinGeometry)
{
    const MemoryParams p = defaultParams();
    AddressMap map(p);
    rrm::Random rng(1);
    for (int i = 0; i < 10000; ++i) {
        const Addr addr = rng.uniform(p.memoryBytes / 64) * 64;
        const Location loc = map.decode(addr);
        ASSERT_LT(loc.channel, p.numChannels);
        ASSERT_LT(loc.bank, p.banksPerChannel);
    }
}

TEST(AddressMap, SameRowBufferSegmentSharesRowId)
{
    AddressMap map(defaultParams());
    const Location a = map.decode(0);
    const Location b = map.decode(1023);
    EXPECT_EQ(a.rowId, b.rowId);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.bank, b.bank);
}

TEST(AddressMap, ConsecutiveSegmentsInterleaveChannels)
{
    AddressMap map(defaultParams());
    const Location a = map.decode(0);
    const Location b = map.decode(1024);
    EXPECT_NE(a.channel, b.channel);
}

TEST(AddressMap, OutOfRangePanics)
{
    AddressMap map(defaultParams());
    EXPECT_THROW(map.decode(8_GiB), check::CheckError);
}

// ---- Channel / controller timing ----

struct Harness
{
    EventQueue queue;
    MemoryParams params;
    Controller ctrl;

    explicit Harness(MemoryParams p = MemoryParams{})
        : params(p), ctrl(params, queue)
    {}

    /** Issue a read and run until it completes; return its latency. */
    Tick
    readLatency(Addr addr)
    {
        const Tick start = queue.now();
        std::optional<Tick> done;
        EXPECT_TRUE(
            ctrl.enqueueRead(addr, [&](Tick t) { done = t; }));
        queue.run();
        EXPECT_TRUE(done.has_value());
        return *done - start;
    }
};

TEST(Channel, ColdReadPaysActivateColumnAndBurst)
{
    Harness h;
    const Tick expected =
        h.params.tRCD + h.params.tCAS + h.params.burstTime();
    EXPECT_EQ(h.readLatency(0), expected);
}

TEST(Channel, RowHitSkipsActivate)
{
    Harness h;
    h.readLatency(0);
    const Tick hit = h.readLatency(64); // same 1 KB segment
    EXPECT_EQ(hit, h.params.tCAS + h.params.burstTime());
}

TEST(Channel, RowMissAfterDifferentSegment)
{
    Harness h;
    h.readLatency(0);
    // Same bank, different segment: bank stride is
    // rowBuffer * channels * banks = 64 KB.
    const Tick miss = h.readLatency(64_KiB);
    EXPECT_EQ(miss,
              h.params.tRCD + h.params.tCAS + h.params.burstTime());
}

TEST(Channel, WriteOccupiesBankForPulseTrain)
{
    Harness h;
    ASSERT_TRUE(h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets7));
    h.queue.run();
    EXPECT_TRUE(h.ctrl.idle());
    // The write must have taken burst + tWP of simulated time.
    EXPECT_GE(h.queue.now(),
              h.params.burstTime() + pcm::writeLatency(
                                         pcm::WriteMode::Sets7));
}

TEST(Channel, WritesToSameBankSerialize)
{
    Harness h;
    // Two writes to the same bank: the second waits for the first.
    ASSERT_TRUE(h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets3));
    ASSERT_TRUE(h.ctrl.enqueueWrite(64, pcm::WriteMode::Sets3));
    h.queue.run();
    const Tick two_writes =
        2 * (pcm::writeLatency(pcm::WriteMode::Sets3));
    EXPECT_GE(h.queue.now(), two_writes);
}

TEST(Channel, ReadsPreferredOverWrites)
{
    Harness h;
    // Enqueue a write and a read to the same bank at t=0; the read
    // must finish before the (long) write.
    std::optional<Tick> read_done;
    ASSERT_TRUE(h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets7));
    ASSERT_TRUE(
        h.ctrl.enqueueRead(64, [&](Tick t) { read_done = t; }));
    h.queue.run();
    ASSERT_TRUE(read_done.has_value());
    // With pausing, the read slots in at the first pulse boundary.
    EXPECT_LT(*read_done, pcm::writeLatency(pcm::WriteMode::Sets7));
}

TEST(Channel, WritePausingBoundsReadDelay)
{
    MemoryParams p;
    p.writePausing = true;
    Harness h(p);
    ASSERT_TRUE(h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets7));
    // Let the write start.
    h.queue.run(10_ns);
    std::optional<Tick> read_done;
    ASSERT_TRUE(
        h.ctrl.enqueueRead(64, [&](Tick t) { read_done = t; }));
    h.queue.run();
    ASSERT_TRUE(read_done.has_value());
    // Worst case: wait for the current pulse (<= 150 ns) plus the
    // read itself; far less than waiting out the full 1150 ns write.
    EXPECT_LE(*read_done, 200_ns + p.tRCD + p.tCAS + p.burstTime());
}

TEST(Channel, NoPausingMakesReadsWaitOutWrites)
{
    MemoryParams p;
    p.writePausing = false;
    Harness h(p);
    ASSERT_TRUE(h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets7));
    h.queue.run(10_ns);
    std::optional<Tick> read_done;
    ASSERT_TRUE(
        h.ctrl.enqueueRead(64, [&](Tick t) { read_done = t; }));
    h.queue.run();
    ASSERT_TRUE(read_done.has_value());
    EXPECT_GT(*read_done,
              h.params.burstTime() +
                  pcm::writeLatency(pcm::WriteMode::Sets7));
}

TEST(Channel, PausedWriteStillCompletes)
{
    Harness h;
    bool write_done = false;
    h.ctrl.setCompletionHook([&](const Request &req, Tick) {
        if (req.kind == ReqKind::Write)
            write_done = true;
    });
    ASSERT_TRUE(h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets7));
    h.queue.run(10_ns);
    ASSERT_TRUE(h.ctrl.enqueueRead(64, [](Tick) {}));
    h.queue.run();
    EXPECT_TRUE(write_done);
    EXPECT_TRUE(h.ctrl.idle());
}

TEST(Channel, RefreshOutranksReads)
{
    Harness h;
    std::vector<int> completion_order;
    h.ctrl.setCompletionHook([&](const Request &req, Tick) {
        completion_order.push_back(req.kind == ReqKind::RrmRefresh ? 1
                                                                   : 0);
    });
    // Same bank: a queued refresh and read; refresh must win the bank.
    ASSERT_TRUE(h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets3));
    h.queue.run(1_ns); // occupy the bank so both queue up
    ASSERT_TRUE(h.ctrl.enqueueRead(64, [](Tick) {}));
    ASSERT_TRUE(h.ctrl.enqueueRefresh(128, pcm::WriteMode::Sets3));
    h.queue.run();
    ASSERT_EQ(completion_order.size(), 3u);
    // Write first (already in flight)...
    // ...then among the two queued ops the refresh issues first, but
    // the read is shorter; compare issue order via the refresh
    // finishing before the read could have if it had to wait.
    EXPECT_EQ(completion_order[0], 0);
}

TEST(Channel, QueueCapacitiesAreEnforced)
{
    MemoryParams p;
    p.readQueueCap = 2;
    p.writeQueueCap = 2;
    p.refreshQueueCap = 1;
    Harness h(p);
    // Same bank so nothing drains instantly... requests go to
    // channel 0 for addr multiples of 4 KB x channel stride.
    EXPECT_TRUE(h.ctrl.enqueueRead(0, [](Tick) {}));
    EXPECT_TRUE(h.ctrl.enqueueRead(64, [](Tick) {}));
    // Third read to the same channel: queue holds pending entries
    // only; issued requests leave the queue, so at least the later
    // ones must eventually refuse.
    int accepted = 0;
    for (int i = 0; i < 8; ++i)
        accepted += h.ctrl.enqueueRead(static_cast<Addr>(i) * 64_KiB,
                                       [](Tick) {});
    EXPECT_LT(accepted, 8);
    h.queue.run();
}

TEST(Channel, WriteDrainModeTriggersAtWatermark)
{
    MemoryParams p;
    p.writeHighWatermark = 4;
    p.writeLowWatermark = 1;
    Harness h(p);
    stats::StatGroup g("g");
    h.ctrl.regStats(g);
    // Keep reads flowing while pushing many writes to one channel.
    for (int i = 0; i < 12; ++i) {
        h.ctrl.enqueueWrite(static_cast<Addr>(i) * 64_KiB,
                            pcm::WriteMode::Sets7);
    }
    h.queue.run();
    const auto *drains = dynamic_cast<const stats::Scalar *>(
        g.find("channel0.drainEntries"));
    ASSERT_NE(drains, nullptr);
    EXPECT_GE(drains->value(), 1.0);
    EXPECT_TRUE(h.ctrl.idle());
}

TEST(Controller, RoutesAcrossChannels)
{
    Harness h;
    stats::StatGroup g("g");
    h.ctrl.regStats(g);
    // 1 KB stride cycles through all four channels.
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            h.ctrl.enqueueRead(static_cast<Addr>(i) * 1024,
                               [](Tick) {}));
    h.queue.run();
    for (unsigned c = 0; c < 4; ++c) {
        const auto *reads = dynamic_cast<const stats::Scalar *>(
            g.find("channel" + std::to_string(c) + ".reads"));
        ASSERT_NE(reads, nullptr);
        EXPECT_DOUBLE_EQ(reads->value(), 2.0) << "channel " << c;
    }
}

TEST(Controller, ChannelsOperateInParallel)
{
    Harness h;
    // Four cold reads on four different channels complete in the time
    // of one cold read.
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(h.ctrl.enqueueRead(
            static_cast<Addr>(i) * 1024,
            [&](Tick t) { done.push_back(t); }));
    }
    h.queue.run();
    ASSERT_EQ(done.size(), 4u);
    const Tick single =
        h.params.tRCD + h.params.tCAS + h.params.burstTime();
    for (Tick t : done)
        EXPECT_EQ(t, single);
}

TEST(Controller, CompletionHookSeesEveryRequest)
{
    Harness h;
    int completions = 0;
    h.ctrl.setCompletionHook(
        [&](const Request &, Tick) { ++completions; });
    h.ctrl.enqueueRead(0, [](Tick) {});
    h.ctrl.enqueueWrite(64_KiB, pcm::WriteMode::Sets3);
    h.ctrl.enqueueRefresh(128_KiB, pcm::WriteMode::Sets3);
    h.queue.run();
    EXPECT_EQ(completions, 3);
    EXPECT_TRUE(h.ctrl.idle());
}

TEST(Controller, WriteIssuedHookFires)
{
    Harness h;
    int issued = 0;
    h.ctrl.setWriteIssuedHook([&] { ++issued; });
    h.ctrl.enqueueWrite(0, pcm::WriteMode::Sets3);
    h.ctrl.enqueueWrite(64, pcm::WriteMode::Sets3);
    h.queue.run();
    EXPECT_EQ(issued, 2);
}

TEST(Controller, ManyRandomRequestsAllComplete)
{
    Harness h;
    rrm::Random rng(7);
    int completed = 0;
    int expected = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.uniform(1_GiB / 64) * 64;
        if (rng.chance(0.5)) {
            if (h.ctrl.enqueueRead(addr,
                                   [&](Tick) { ++completed; }))
                ++expected;
        } else {
            h.ctrl.enqueueWrite(addr, pcm::WriteMode::Sets5);
        }
        // Drain periodically so queues never stay full.
        if (i % 50 == 0)
            h.queue.run(h.queue.now() + 10_us);
    }
    h.queue.run();
    EXPECT_EQ(completed, expected);
    EXPECT_TRUE(h.ctrl.idle());
}

// ---- Checkpoint restore ----

/**
 * A quiescent CTRL payload, in Channel::saveCkpt's field order, whose
 * channels each hold `history` tFAW activates and ring index `idx`.
 */
ckpt::ChunkWriter
ctrlPayload(const MemoryParams &p, std::uint32_t history,
            std::uint64_t idx)
{
    ckpt::ChunkWriter w;
    for (unsigned c = 0; c < p.numChannels; ++c) {
        for (int k = 0; k < 6; ++k)
            w.u64(0); // enqueued / retired per request kind
        w.u64(0);     // last completion
        w.u64(0);     // bus free at
        w.u32(history);
        for (std::uint32_t i = 0; i < history; ++i)
            w.u64(100 * i);
        w.u64(idx);
        w.b(false); // write drain
        w.u32(p.banksPerChannel);
        for (unsigned b = 0; b < p.banksPerChannel; ++b) {
            w.u64(0);                 // busy until
            w.u64(~std::uint64_t(0)); // open row
            w.b(false);
        }
    }
    return w;
}

void
restoreCtrl(Harness &h, std::uint32_t history, std::uint64_t idx)
{
    const ckpt::ChunkWriter w = ctrlPayload(h.params, history, idx);
    ckpt::ChunkReader r(w.data().data(), w.size(), "CTRL");
    h.ctrl.restoreCkpt(r);
    r.expectDone();
}

TEST(Controller, CheckpointKeepsTheActivateRingInBounds)
{
    Harness h;
    // The crafted layout is the one a fresh controller saves.
    ckpt::ChunkWriter fresh;
    h.ctrl.saveCkpt(fresh);
    EXPECT_EQ(fresh.data(), ctrlPayload(h.params, 0, 0).data());

    EXPECT_NO_THROW(restoreCtrl(h, 2, 0));
    EXPECT_NO_THROW(restoreCtrl(h, 4, 3));
    // The ring holds four activates, and its index moves only once
    // it is full; anything else reads and writes past its end.
    EXPECT_THROW(restoreCtrl(h, 4, 1000), ckpt::CkptError);
    EXPECT_THROW(restoreCtrl(h, 4, 4), ckpt::CkptError);
    EXPECT_THROW(restoreCtrl(h, 2, 1), ckpt::CkptError);
    EXPECT_THROW(restoreCtrl(h, 5, 0), ckpt::CkptError);
}

} // namespace
} // namespace rrm::memctrl
