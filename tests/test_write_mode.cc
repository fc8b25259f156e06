/**
 * @file
 * Tests for the MLC PCM write-mode table (paper Table I).
 */

#include <gtest/gtest.h>

#include "common/check.hh"
#include "pcm/write_mode.hh"

namespace rrm::pcm
{
namespace
{

TEST(WriteMode, SetIterationsRange)
{
    EXPECT_EQ(setIterations(WriteMode::Sets3), 3u);
    EXPECT_EQ(setIterations(WriteMode::Sets4), 4u);
    EXPECT_EQ(setIterations(WriteMode::Sets5), 5u);
    EXPECT_EQ(setIterations(WriteMode::Sets6), 6u);
    EXPECT_EQ(setIterations(WriteMode::Sets7), 7u);
}

TEST(WriteMode, ModeForSetIterationsRoundTrips)
{
    for (WriteMode m : allWriteModes)
        EXPECT_EQ(modeForSetIterations(setIterations(m)), m);
}

TEST(WriteMode, ModeForInvalidIterationsPanics)
{
    EXPECT_THROW(modeForSetIterations(2), check::CheckError);
    EXPECT_THROW(modeForSetIterations(8), check::CheckError);
}

TEST(WriteMode, LatencyMatchesPulseTrain)
{
    for (WriteMode m : allWriteModes) {
        EXPECT_EQ(writeLatency(m),
                  resetPulse + setIterations(m) * setPulse)
            << writeModeName(m);
    }
}

TEST(WriteMode, Table1LatencyValues)
{
    EXPECT_EQ(writeLatency(WriteMode::Sets3), 550_ns);
    EXPECT_EQ(writeLatency(WriteMode::Sets4), 700_ns);
    EXPECT_EQ(writeLatency(WriteMode::Sets5), 850_ns);
    EXPECT_EQ(writeLatency(WriteMode::Sets6), 1000_ns);
    EXPECT_EQ(writeLatency(WriteMode::Sets7), 1150_ns);
}

TEST(WriteMode, Table1RetentionValues)
{
    EXPECT_DOUBLE_EQ(retentionSeconds(WriteMode::Sets3), 2.01);
    EXPECT_DOUBLE_EQ(retentionSeconds(WriteMode::Sets4), 24.05);
    EXPECT_DOUBLE_EQ(retentionSeconds(WriteMode::Sets5), 104.4);
    EXPECT_DOUBLE_EQ(retentionSeconds(WriteMode::Sets6), 991.4);
    EXPECT_DOUBLE_EQ(retentionSeconds(WriteMode::Sets7), 3054.9);
}

TEST(WriteMode, Table1CurrentsDecreaseWithIterations)
{
    // More SET iterations allow a gentler (smaller) SET current.
    double prev = 1e9;
    for (WriteMode m : allWriteModes) {
        const double cur = writeModeParams(m).setCurrentUa;
        EXPECT_LT(cur, prev) << writeModeName(m);
        prev = cur;
    }
}

TEST(WriteMode, RetentionAndLatencyBothIncreaseWithIterations)
{
    for (std::size_t i = 1; i < allWriteModes.size(); ++i) {
        EXPECT_GT(retentionSeconds(allWriteModes[i]),
                  retentionSeconds(allWriteModes[i - 1]));
        EXPECT_GT(writeLatency(allWriteModes[i]),
                  writeLatency(allWriteModes[i - 1]));
    }
}

TEST(WriteMode, NormalizedEnergyPeaksAtSevenSets)
{
    EXPECT_DOUBLE_EQ(
        writeModeParams(WriteMode::Sets7).normalizedEnergy, 1.0);
    for (WriteMode m : allWriteModes) {
        EXPECT_LE(writeModeParams(m).normalizedEnergy, 1.0);
        EXPECT_GT(writeModeParams(m).normalizedEnergy, 0.5);
    }
}

TEST(WriteMode, Names)
{
    EXPECT_EQ(writeModeName(WriteMode::Sets3), "3-SETs");
    EXPECT_EQ(writeModeName(WriteMode::Sets7), "7-SETs");
}

} // namespace
} // namespace rrm::pcm
