/**
 * @file
 * Tests for lifetime estimation.
 */

#include <gtest/gtest.h>

#include "common/check.hh"
#include "pcm/lifetime_model.hh"

namespace rrm::pcm
{
namespace
{

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
