/**
 * @file
 * Tests for wear tracking and lifetime estimation.
 */

#include <gtest/gtest.h>

#include "common/check.hh"
#include "pcm/lifetime_model.hh"
#include "pcm/wear_tracker.hh"

namespace rrm::pcm
{
namespace
{

WearTracker
smallTracker()
{
    // 1 MB memory, 4 KB regions, 64 B blocks -> 256 regions.
    return WearTracker(1_MiB, 4_KiB);
}

TEST(WearTracker, GeometryChecks)
{
    WearTracker t = smallTracker();
    EXPECT_EQ(t.numRegions(), 256u);
    EXPECT_EQ(t.numBlocks(), 1_MiB / 64);
}

TEST(WearTracker, RecordsPerCauseTotals)
{
    WearTracker t = smallTracker();
    t.recordBlockWrite(0, WearCause::DemandWrite);
    t.recordBlockWrite(64, WearCause::DemandWrite);
    t.recordBlockWrite(128, WearCause::RrmRefresh);
    t.recordGlobalRefresh(1000);
    EXPECT_EQ(t.total(WearCause::DemandWrite), 2u);
    EXPECT_EQ(t.total(WearCause::RrmRefresh), 1u);
    EXPECT_EQ(t.total(WearCause::GlobalRefresh), 1000u);
    EXPECT_EQ(t.grandTotal(), 1003u);
}

TEST(WearTracker, RegionAttribution)
{
    WearTracker t = smallTracker();
    // Three writes in region 0, one in region 5.
    t.recordBlockWrite(0, WearCause::DemandWrite);
    t.recordBlockWrite(64, WearCause::DemandWrite);
    t.recordBlockWrite(4095, WearCause::RrmRefresh);
    t.recordBlockWrite(5 * 4096, WearCause::DemandWrite);
    EXPECT_EQ(t.regionWear(0), 3u);
    EXPECT_EQ(t.regionWear(5), 1u);
    EXPECT_EQ(t.regionWear(1), 0u);
    EXPECT_EQ(t.touchedRegions(), 2u);
    EXPECT_EQ(t.maxRegionWear(), 3u);
}

TEST(WearTracker, RegionWearStatsSkipUntouched)
{
    WearTracker t = smallTracker();
    t.recordBlockWrite(0, WearCause::DemandWrite);
    t.recordBlockWrite(0, WearCause::DemandWrite);
    t.recordBlockWrite(4096, WearCause::DemandWrite);
    const SampleStats s = t.regionWearStats();
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 1.5);
}

TEST(WearTracker, GlobalRefreshViaBlockWritePanics)
{
    WearTracker t = smallTracker();
    EXPECT_THROW(t.recordBlockWrite(0, WearCause::GlobalRefresh),
                 check::CheckError);
}

TEST(WearTracker, OutOfRangeAddressPanics)
{
    WearTracker t = smallTracker();
    EXPECT_THROW(t.recordBlockWrite(1_MiB, WearCause::DemandWrite),
                 check::CheckError);
}

TEST(WearTracker, ResetClearsEverything)
{
    WearTracker t = smallTracker();
    t.recordBlockWrite(0, WearCause::DemandWrite);
    t.recordGlobalRefresh(5);
    t.reset();
    EXPECT_EQ(t.grandTotal(), 0u);
    EXPECT_EQ(t.touchedRegions(), 0u);
}

TEST(WearTracker, CauseNames)
{
    EXPECT_EQ(wearCauseName(WearCause::DemandWrite), "demand_write");
    EXPECT_EQ(wearCauseName(WearCause::RrmRefresh), "rrm_refresh");
    EXPECT_EQ(wearCauseName(WearCause::GlobalRefresh),
              "global_refresh");
}

// ---- Lifetime ----

constexpr std::uint64_t blocks8GiB = 8_GiB / 64;

TEST(LifetimeModel, DemandRateIsCountOverWindow)
{
    LifetimeModel m(blocks8GiB);
    WearMeasurement wm;
    wm.demandWrites = 1000000;
    wm.windowSeconds = 0.1;
    wm.timeScale = 50.0;
    EXPECT_DOUBLE_EQ(m.demandWriteRate(wm), 1e7);
}

TEST(LifetimeModel, RrmRefreshRateIsSpreadOverScaledTime)
{
    LifetimeModel m(blocks8GiB);
    WearMeasurement wm;
    wm.rrmRefreshWrites = 100000;
    wm.windowSeconds = 0.1;
    wm.timeScale = 50.0;
    // 1e5 refreshes over 0.1 s x 50 = 5 s of real time.
    EXPECT_DOUBLE_EQ(m.rrmRefreshRate(wm), 20000.0);
}

TEST(LifetimeModel, GlobalRefreshRateFollowsRetention)
{
    LifetimeModel m(blocks8GiB);
    WearMeasurement wm;
    wm.windowSeconds = 1.0;
    wm.globalRefreshMode = WriteMode::Sets3;
    EXPECT_NEAR(m.globalRefreshRate(wm),
                static_cast<double>(blocks8GiB) / 2.01, 1.0);
    wm.globalRefreshMode = std::nullopt;
    EXPECT_DOUBLE_EQ(m.globalRefreshRate(wm), 0.0);
}

/**
 * Paper cross-check: a Static-3-SETs system's lifetime is dominated by
 * whole-array refresh every 2.01 s; with 5e6 endurance and 95%
 * leveling that bounds lifetime at 0.95 * 5e6 * 2.01 s = ~0.30 years,
 * matching the ~0.3 years the paper reports.
 */
TEST(LifetimeModel, Static3RefreshBoundMatchesPaper)
{
    LifetimeModel m(blocks8GiB);
    WearMeasurement wm;
    wm.windowSeconds = 1.0;
    wm.demandWrites = 0;
    wm.globalRefreshMode = WriteMode::Sets3;
    const double years = m.lifetimeYears(wm);
    EXPECT_NEAR(years, 0.95 * 5e6 * 2.01 / secondsPerYear, 1e-6);
    EXPECT_GT(years, 0.28);
    EXPECT_LT(years, 0.33);
}

TEST(LifetimeModel, LifetimeInverseInWriteRate)
{
    LifetimeModel m(blocks8GiB);
    WearMeasurement a;
    a.demandWrites = 1000000;
    a.windowSeconds = 0.1;
    a.globalRefreshMode = std::nullopt;
    WearMeasurement b = a;
    b.demandWrites = 2000000;
    EXPECT_NEAR(m.lifetimeSeconds(a) / m.lifetimeSeconds(b), 2.0,
                1e-9);
}

TEST(LifetimeModel, MoreRefreshShortensLifetime)
{
    LifetimeModel m(blocks8GiB);
    WearMeasurement base;
    base.demandWrites = 1000000;
    base.windowSeconds = 0.1;
    base.timeScale = 50.0;
    base.globalRefreshMode = WriteMode::Sets7;
    WearMeasurement more = base;
    more.rrmRefreshWrites = 500000;
    EXPECT_LT(m.lifetimeYears(more), m.lifetimeYears(base));
}

TEST(LifetimeModel, EmptyWindowPanics)
{
    LifetimeModel m(blocks8GiB);
    WearMeasurement wm;
    EXPECT_THROW(m.lifetimeYears(wm), check::CheckError);
}

TEST(LifetimeModel, InvalidParamsPanic)
{
    EXPECT_THROW(LifetimeModel(0), check::CheckError);
}

} // namespace
} // namespace rrm::pcm
