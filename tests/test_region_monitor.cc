/**
 * @file
 * Tests for the Region Retention Monitor — the paper's Section IV
 * mechanism: registration with the dirty-write streaming filter,
 * hot promotion at hot_threshold, write-mode decision, selective fast
 * refresh, decay/demotion, and eviction flushing.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.hh"
#include "rrm/rrm_config.hh"
#include "rrm/region_monitor.hh"

namespace rrm::monitor
{
namespace
{

RrmConfig
smallConfig()
{
    RrmConfig cfg;
    cfg.numSets = 4;
    cfg.assoc = 2;
    cfg.hotThreshold = 4;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    return cfg;
}

struct Fixture
{
    EventQueue queue;
    RrmConfig cfg;
    RegionMonitor rrm;
    std::vector<RefreshRequest> refreshes;

    explicit Fixture(RrmConfig c = smallConfig())
        : cfg(c), rrm(cfg, queue)
    {
        rrm.setRefreshCallback([this](const RefreshRequest &r) {
            refreshes.push_back(r);
        });
    }

    /** Register `n` dirty writes to the block at `addr`. */
    void
    dirtyWrites(Addr addr, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            rrm.registerLlcWrite(addr, true);
    }
};

TEST(RegionMonitor, CleanWritesAreFiltered)
{
    Fixture f;
    for (int i = 0; i < 100; ++i)
        f.rrm.registerLlcWrite(0x1000, false);
    EXPECT_FALSE(f.rrm.isTracked(0x1000));
}

TEST(RegionMonitor, DirtyWriteAllocatesEntry)
{
    Fixture f;
    f.rrm.registerLlcWrite(0x1000, true);
    EXPECT_TRUE(f.rrm.isTracked(0x1000));
    EXPECT_FALSE(f.rrm.isHot(0x1000));
    EXPECT_EQ(f.rrm.dirtyWriteCounter(0x1000), 1u);
}

TEST(RegionMonitor, EntryCoversWholeRegion)
{
    Fixture f;
    f.rrm.registerLlcWrite(0x1000, true);
    EXPECT_TRUE(f.rrm.isTracked(0x1FC0)); // same 4 KB region
    EXPECT_FALSE(f.rrm.isTracked(0x2000));
}

TEST(RegionMonitor, PromotionAtThreshold)
{
    Fixture f;
    f.dirtyWrites(0x1000, 3);
    EXPECT_FALSE(f.rrm.isHot(0x1000));
    f.dirtyWrites(0x1000, 1);
    EXPECT_TRUE(f.rrm.isHot(0x1000));
    EXPECT_EQ(f.rrm.hotEntryCount(), 1u);
}

TEST(RegionMonitor, CounterSaturatesAtThreshold)
{
    Fixture f;
    f.dirtyWrites(0x1000, 10);
    EXPECT_EQ(f.rrm.dirtyWriteCounter(0x1000), 4u);
}

TEST(RegionMonitor, VectorBitsOnlySetWhileHot)
{
    Fixture f;
    // Below threshold: no bits.
    f.dirtyWrites(0x1000, 3);
    EXPECT_FALSE(f.rrm.shortRetentionBit(0x1000));
    // The promoting write sets the bit of its own block.
    f.dirtyWrites(0x1040, 1);
    EXPECT_TRUE(f.rrm.isHot(0x1000));
    EXPECT_TRUE(f.rrm.shortRetentionBit(0x1040));
    EXPECT_FALSE(f.rrm.shortRetentionBit(0x1000));
    // Further writes while hot set more bits.
    f.dirtyWrites(0x1080, 1);
    EXPECT_TRUE(f.rrm.shortRetentionBit(0x1080));
    EXPECT_EQ(f.rrm.shortRetentionBlockCount(), 2u);
}

TEST(RegionMonitor, WriteModeFollowsVectorBit)
{
    Fixture f;
    EXPECT_EQ(f.rrm.writeModeFor(0x1000), f.cfg.slowMode);
    f.dirtyWrites(0x1040, 4); // promote via block 1
    EXPECT_EQ(f.rrm.writeModeFor(0x1040), f.cfg.fastMode);
    // Unwritten block of a hot region still defaults slow.
    EXPECT_EQ(f.rrm.writeModeFor(0x1000), f.cfg.slowMode);
    // Blocks outside any entry are slow.
    EXPECT_EQ(f.rrm.writeModeFor(0x9000), f.cfg.slowMode);
}

TEST(RegionMonitor, SelectiveRefreshEmitsFastPerSetBit)
{
    Fixture f;
    f.dirtyWrites(0x1040, 4);
    f.dirtyWrites(0x1080, 1);
    f.refreshes.clear();
    f.rrm.runSelectiveRefresh();
    ASSERT_EQ(f.refreshes.size(), 2u);
    for (const auto &r : f.refreshes) {
        EXPECT_EQ(r.mode, f.cfg.fastMode);
        EXPECT_FALSE(r.fromDecay);
    }
    EXPECT_EQ(f.refreshes[0].blockAddr, 0x1040u);
    EXPECT_EQ(f.refreshes[1].blockAddr, 0x1080u);
}

TEST(RegionMonitor, ColdEntriesNeverRefresh)
{
    Fixture f;
    f.dirtyWrites(0x1000, 3); // tracked but cold
    f.refreshes.clear();
    f.rrm.runSelectiveRefresh();
    EXPECT_TRUE(f.refreshes.empty());
}

TEST(RegionMonitor, DecayDemotesIdleHotEntry)
{
    Fixture f;
    f.dirtyWrites(0x1040, 4);
    ASSERT_TRUE(f.rrm.isHot(0x1000));
    f.refreshes.clear();
    // The promoting write left the counter saturated; the first wrap
    // halves it (still-hot path), the second demotes.
    for (unsigned t = 0; t < f.cfg.decayTicksPerInterval; ++t)
        f.rrm.runDecayTick();
    EXPECT_TRUE(f.rrm.isHot(0x1000));
    EXPECT_EQ(f.rrm.dirtyWriteCounter(0x1000), 2u);
    for (unsigned t = 0; t < f.cfg.decayTicksPerInterval; ++t)
        f.rrm.runDecayTick();
    EXPECT_FALSE(f.rrm.isHot(0x1000));
    // Demotion slow-refreshed the short-retention block.
    ASSERT_EQ(f.refreshes.size(), 1u);
    EXPECT_EQ(f.refreshes[0].blockAddr, 0x1040u);
    EXPECT_EQ(f.refreshes[0].mode, f.cfg.slowMode);
    EXPECT_TRUE(f.refreshes[0].fromDecay);
    EXPECT_EQ(f.rrm.shortRetentionBlockCount(), 0u);
}

TEST(RegionMonitor, SustainedTrafficKeepsEntryHot)
{
    Fixture f;
    f.dirtyWrites(0x1040, 4);
    for (int interval = 0; interval < 5; ++interval) {
        // Re-saturate the (halved) counter during each interval.
        f.dirtyWrites(0x1040, 4);
        for (unsigned t = 0; t < f.cfg.decayTicksPerInterval; ++t)
            f.rrm.runDecayTick();
        EXPECT_TRUE(f.rrm.isHot(0x1000)) << "interval " << interval;
    }
}

TEST(RegionMonitor, DemotedRegionCanRepromote)
{
    Fixture f;
    f.dirtyWrites(0x1040, 4);
    for (int i = 0; i < 2 * 16; ++i)
        f.rrm.runDecayTick();
    ASSERT_FALSE(f.rrm.isHot(0x1000));
    f.dirtyWrites(0x1040, 4);
    EXPECT_TRUE(f.rrm.isHot(0x1000));
}

TEST(RegionMonitor, LruEvictionWithinSet)
{
    Fixture f; // 4 sets x 2 ways; same set every 4 regions (16 KB)
    const Addr a = 0x0000, b = 0x10000, c = 0x20000;
    f.rrm.registerLlcWrite(a, true);
    f.rrm.registerLlcWrite(b, true);
    // Touch a so b is LRU.
    f.rrm.registerLlcWrite(a, true);
    f.rrm.registerLlcWrite(c, true);
    EXPECT_TRUE(f.rrm.isTracked(a));
    EXPECT_FALSE(f.rrm.isTracked(b));
    EXPECT_TRUE(f.rrm.isTracked(c));
}

TEST(RegionMonitor, EvictionFlushesLiveVectorBits)
{
    Fixture f;
    const Addr a = 0x0000, b = 0x10000, c = 0x20000;
    f.dirtyWrites(a + 0x40, 4); // hot with one bit
    f.rrm.registerLlcWrite(b, true);
    f.refreshes.clear();
    // Allocating c evicts LRU entry a (b was touched later? order:
    // a..., b, then c). a was last touched by its 4th write; b after.
    // So a is LRU: its bit must be slow-refreshed on eviction.
    f.rrm.registerLlcWrite(c, true);
    EXPECT_FALSE(f.rrm.isTracked(a));
    ASSERT_EQ(f.refreshes.size(), 1u);
    EXPECT_EQ(f.refreshes[0].blockAddr, a + 0x40);
    EXPECT_EQ(f.refreshes[0].mode, f.cfg.slowMode);
}

TEST(RegionMonitor, PeriodicTasksDriveRefreshAndDecay)
{
    RrmConfig cfg = smallConfig();
    cfg.timeScale = 100000.0; // 20 us interval: cheap to simulate
    cfg.decayStretch = 1.0;
    EventQueue queue;
    RegionMonitor rrm(cfg, queue);
    std::vector<RefreshRequest> refreshes;
    rrm.setRefreshCallback([&](const RefreshRequest &r) {
        refreshes.push_back(r);
    });
    rrm.start();
    for (unsigned i = 0; i < cfg.hotThreshold; ++i)
        rrm.registerLlcWrite(0x1040, true);
    ASSERT_TRUE(rrm.isHot(0x1000));
    // Run past two refresh interrupts: two fast refreshes, and decay
    // wraps demote the idle entry after the second interval.
    queue.run(cfg.shortRetentionInterval() * 2 + 1000);
    int fast = 0, slow = 0;
    for (const auto &r : refreshes) {
        fast += r.mode == cfg.fastMode;
        slow += r.mode == cfg.slowMode;
    }
    EXPECT_GE(fast, 1);
    EXPECT_GE(slow, 1);
    EXPECT_FALSE(rrm.isHot(0x1000));
    rrm.stop();
}

TEST(RegionMonitor, HigherThresholdPromotesFewerRegions)
{
    // Identical registration storms against two thresholds.
    auto run = [](unsigned threshold) {
        RrmConfig cfg;
        cfg.numSets = 64;
        cfg.assoc = 8;
        cfg.hotThreshold = threshold;
        cfg.timeScale = 1.0;
        cfg.decayStretch = 1.0;
        EventQueue queue;
        RegionMonitor rrm(cfg, queue);
        rrm::Random rng(5);
        rrm::ZipfSampler zipf(512, 0.9);
        for (int i = 0; i < 20000; ++i) {
            const Addr addr = zipf.sample(rng) * 4096 +
                              rng.uniform(64) * 64;
            rrm.registerLlcWrite(addr, true);
        }
        return rrm.hotEntryCount();
    };
    const auto hot8 = run(8);
    const auto hot16 = run(16);
    const auto hot64 = run(64);
    EXPECT_GT(hot8, hot16);
    EXPECT_GT(hot16, hot64);
    EXPECT_GT(hot64, 0u);
}

TEST(RrmConfig, Table8StorageOverheads)
{
    RrmConfig cfg; // 256 sets x 24 ways, 4 KB regions
    // 1 + 52 + 1 + 6 + 64 + 4 = 128 bits = 16 B per entry.
    EXPECT_EQ(cfg.tagBits(), 52u);
    EXPECT_EQ(cfg.counterBits(), 6u);
    EXPECT_EQ(cfg.storageBytes(), 96_KiB);

    cfg.numSets = 128;
    EXPECT_EQ(cfg.storageBytes(), 48_KiB);
    cfg.numSets = 512;
    EXPECT_EQ(cfg.storageBytes(), 192_KiB);
    cfg.numSets = 1024;
    EXPECT_EQ(cfg.storageBytes(), 384_KiB);
}

TEST(RrmConfig, CoverageMath)
{
    RrmConfig cfg;
    EXPECT_EQ(cfg.coverageBytes(), 24_MiB); // 4x of the 6 MB LLC
    EXPECT_EQ(cfg.blocksPerRegion(), 64u);
}

TEST(RrmConfig, IntervalsScaleWithTimeScale)
{
    RrmConfig native;
    native.timeScale = 1.0;
    native.decayStretch = 1.0;
    // 2.01 s retention - 0.01 s guard = 2 s.
    EXPECT_EQ(native.shortRetentionInterval(), 2_s);
    EXPECT_EQ(native.decayTickInterval(), 125_ms);

    RrmConfig scaled;
    scaled.timeScale = 50.0;
    scaled.decayStretch = 1.0;
    EXPECT_EQ(scaled.shortRetentionInterval(), 40_ms);
}

TEST(RrmConfig, AutoDecayStretchKicksInAtHighScale)
{
    RrmConfig cfg;
    cfg.timeScale = 1.0;
    EXPECT_DOUBLE_EQ(cfg.effectiveDecayStretch(), 1.0);
    cfg.timeScale = 64.0;
    EXPECT_DOUBLE_EQ(cfg.effectiveDecayStretch(), 4.0);
}

TEST(RrmConfig, ValidationCatchesBadConfigs)
{
    RrmConfig cfg;
    cfg.hotThreshold = 0;
    EXPECT_THROW(cfg.check(), FatalError);

    cfg = RrmConfig{};
    cfg.regionBytes = 100;
    EXPECT_THROW(cfg.check(), FatalError);

    cfg = RrmConfig{};
    cfg.timeScale = 0.5;
    EXPECT_THROW(cfg.check(), FatalError);
}

TEST(RrmConfig, CounterWidthGrowsWithThreshold)
{
    RrmConfig cfg;
    cfg.hotThreshold = 64;
    EXPECT_EQ(cfg.counterBits(), 7u);
    cfg.hotThreshold = 8;
    EXPECT_EQ(cfg.counterBits(), 6u); // paper floor of 6 bits
}

} // namespace
} // namespace rrm::monitor
