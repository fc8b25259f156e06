/**
 * @file
 * Cross-cutting edge-case tests: non-default RRM region sizes (the
 * Figure 13 configurations), tFAW enforcement in the channel, and
 * system-level backpressure accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "memctrl/controller.hh"
#include "rrm/region_monitor.hh"
#include "system/system.hh"

namespace rrm
{
namespace
{

// ---- RRM with non-default Retention Region sizes (Fig. 13) ----

class RegionSizes : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RegionSizes, VectorWidthTracksRegionSize)
{
    monitor::RrmConfig cfg;
    cfg.regionBytes = GetParam();
    cfg.numSets = 8;
    cfg.assoc = 2;
    cfg.hotThreshold = 2;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    EXPECT_EQ(cfg.blocksPerRegion(), GetParam() / 64);

    EventQueue queue;
    monitor::RegionMonitor rrm(cfg, queue);
    std::vector<monitor::RefreshRequest> refreshes;
    rrm.setRefreshCallback([&](const monitor::RefreshRequest &r) {
        refreshes.push_back(r);
    });

    // Promote a region via its first and last blocks.
    const Addr base = 3 * GetParam();
    const Addr last_block = base + GetParam() - 64;
    rrm.registerLlcWrite(base, true);
    rrm.registerLlcWrite(last_block, true);
    ASSERT_TRUE(rrm.isHot(base));
    EXPECT_TRUE(rrm.shortRetentionBit(last_block));
    EXPECT_FALSE(rrm.shortRetentionBit(base)); // set pre-promotion

    // One more write sets the first block's bit too.
    rrm.registerLlcWrite(base, true);
    EXPECT_TRUE(rrm.shortRetentionBit(base));

    // Selective refresh touches exactly the two flagged blocks.
    rrm.runSelectiveRefresh();
    ASSERT_EQ(refreshes.size(), 2u);
    EXPECT_EQ(refreshes[0].blockAddr, base);
    EXPECT_EQ(refreshes[1].blockAddr, last_block);
}

TEST_P(RegionSizes, AdjacentRegionsAreIndependent)
{
    monitor::RrmConfig cfg;
    cfg.regionBytes = GetParam();
    cfg.numSets = 8;
    cfg.assoc = 4;
    cfg.hotThreshold = 2;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    EventQueue queue;
    monitor::RegionMonitor rrm(cfg, queue);
    const Addr a = 0;
    const Addr b = GetParam(); // next region
    rrm.registerLlcWrite(a, true);
    rrm.registerLlcWrite(a, true);
    EXPECT_TRUE(rrm.isHot(a));
    EXPECT_FALSE(rrm.isTracked(b));
}

TEST_P(RegionSizes, SameSetEntriesKeepTheirOwnBits)
{
    // Two hot regions in one set sit in adjacent entries, and so in
    // adjacent slices of the monitor's one vector-word array (at
    // 16 KiB, four words each). Bits set in one must not show in the
    // other, nor be refreshed or cleared with it.
    monitor::RrmConfig cfg;
    cfg.regionBytes = GetParam();
    cfg.numSets = 8;
    cfg.assoc = 4;
    cfg.hotThreshold = 1;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    EventQueue queue;
    monitor::RegionMonitor rrm(cfg, queue);
    std::vector<monitor::RefreshRequest> refreshes;
    rrm.setRefreshCallback([&](const monitor::RefreshRequest &r) {
        refreshes.push_back(r);
    });
    const Addr a = 5 * GetParam();
    const Addr b = (5 + cfg.numSets) * GetParam(); // same set as a
    const Addr blocks = GetParam() / 64;
    const std::vector<Addr> a_blocks = {0, blocks / 2 - 1, blocks / 2,
                                        blocks - 1};
    const std::vector<Addr> b_blocks = {1, blocks / 2, blocks - 2};
    for (const Addr k : a_blocks)
        rrm.registerLlcWrite(a + k * 64, true);
    for (const Addr k : b_blocks)
        rrm.registerLlcWrite(b + k * 64, true);
    ASSERT_TRUE(rrm.isHot(a));
    ASSERT_TRUE(rrm.isHot(b));
    EXPECT_EQ(rrm.shortRetentionBlockCount(),
              a_blocks.size() + b_blocks.size());
    for (Addr k = 0; k < blocks; ++k) {
        const bool in_a =
            std::find(a_blocks.begin(), a_blocks.end(), k) != a_blocks.end();
        const bool in_b =
            std::find(b_blocks.begin(), b_blocks.end(), k) != b_blocks.end();
        ASSERT_EQ(rrm.shortRetentionBit(a + k * 64), in_a) << k;
        ASSERT_EQ(rrm.shortRetentionBit(b + k * 64), in_b) << k;
    }

    // One refresh round: each flagged block once, entry by entry.
    rrm.runSelectiveRefresh();
    std::vector<Addr> want;
    for (const Addr k : a_blocks)
        want.push_back(a + k * 64);
    for (const Addr k : b_blocks)
        want.push_back(b + k * 64);
    std::vector<Addr> got;
    for (const auto &r : refreshes)
        got.push_back(r.blockAddr);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);

    // Evicting a's entry flushes exactly a's blocks and leaves b's.
    refreshes.clear();
    rrm.registerLlcWrite(b, true); // a is now the set's LRU entry
    for (Addr i = 2; i < 2 + cfg.assoc - 1; ++i)
        rrm.registerLlcWrite((5 + i * cfg.numSets) * GetParam(), true);
    ASSERT_FALSE(rrm.isTracked(a));
    ASSERT_TRUE(rrm.isTracked(b));
    got.clear();
    for (const auto &r : refreshes) {
        EXPECT_TRUE(r.fromDecay);
        got.push_back(r.blockAddr);
    }
    want.clear();
    for (const Addr k : a_blocks)
        want.push_back(a + k * 64);
    EXPECT_EQ(got, want);
    // b gained block 0; each of the three new entries one block.
    EXPECT_EQ(rrm.shortRetentionBlockCount(), b_blocks.size() + 1 + 3);
    for (const Addr k : b_blocks)
        EXPECT_TRUE(rrm.shortRetentionBit(b + k * 64)) << k;
    EXPECT_NO_THROW(rrm.audit());
}

INSTANTIATE_TEST_SUITE_P(Fig13Sizes, RegionSizes,
                         ::testing::Values(2_KiB, 4_KiB, 8_KiB,
                                           16_KiB));

// ---- tFAW enforcement ----

TEST(ChannelTiming, FifthActivateWaitsForTfawWindow)
{
    EventQueue queue;
    memctrl::MemoryParams params;
    memctrl::Controller ctrl(params, queue);
    // Five cold reads to five banks of channel 0 (4 KB stride).
    std::vector<Tick> done;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(ctrl.enqueueRead(
            static_cast<Addr>(i) * 4_KiB,
            [&](Tick t) { done.push_back(t); }));
    }
    queue.run();
    ASSERT_EQ(done.size(), 5u);
    std::sort(done.begin(), done.end());
    // The 5th activate can start no earlier than tFAW after the 1st:
    // its completion is at least tFAW + tRCD + tCAS.
    EXPECT_GE(done[4], params.tFAW + params.tRCD + params.tCAS);
}

TEST(ChannelTiming, FourActivatesProceedUnthrottled)
{
    EventQueue queue;
    memctrl::MemoryParams params;
    memctrl::Controller ctrl(params, queue);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ctrl.enqueueRead(
            static_cast<Addr>(i) * 4_KiB,
            [&](Tick t) { done.push_back(t); }));
    }
    queue.run();
    ASSERT_EQ(done.size(), 4u);
    // Bank-parallel activates; only the shared bus serializes the
    // bursts, so the last read ends well before a serial schedule.
    const Tick serial =
        4 * (params.tRCD + params.tCAS + params.burstTime());
    for (Tick t : done)
        EXPECT_LT(t, serial);
}

// ---- System backpressure accounting ----

TEST(SystemBackpressure, HeavyWriteTrafficTriggersRefusals)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("lbm");
    cfg.scheme = sys::Scheme::staticScheme(pcm::WriteMode::Sets7);
    cfg.windowSeconds = 0.004;
    cfg.warmupFraction = 0.0;
    // Tiny buffers force the backpressure paths.
    cfg.writebackBufferCap = 2;
    cfg.memory.writeQueueCap = 4;
    cfg.memory.writeHighWatermark = 3;
    cfg.memory.writeLowWatermark = 1;
    sys::System system(std::move(cfg));
    const sys::SimResults r = system.run();
    EXPECT_GT(r.demandWrites, 0u);

    const auto *refusals = dynamic_cast<const stats::Scalar *>(
        system.statRoot().find("sys.fillRefusals"));
    ASSERT_NE(refusals, nullptr);
    EXPECT_GT(refusals->value(), 0.0);
    // And the run still makes forward progress.
    EXPECT_GT(r.totalInstructions, 1000u);
}

TEST(SystemBackpressure, SlowWritesHurtMoreUnderTightBuffers)
{
    auto run = [](pcm::WriteMode mode) {
        sys::SystemConfig cfg;
        cfg.workload = trace::workloadFromName("lbm");
        cfg.scheme = sys::Scheme::staticScheme(mode);
        cfg.windowSeconds = 0.006;
        cfg.writebackBufferCap = 4;
        sys::System system(std::move(cfg));
        return system.run().aggregateIpc;
    };
    EXPECT_GT(run(pcm::WriteMode::Sets3),
              run(pcm::WriteMode::Sets7) * 1.02);
}

} // namespace
} // namespace rrm
