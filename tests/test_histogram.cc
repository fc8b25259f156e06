/**
 * @file
 * Tests for BoundedHistogram and SampleStats.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hh"
#include "common/histogram.hh"

namespace rrm
{
namespace
{

TEST(BoundedHistogram, BucketCountIsBoundariesPlusOne)
{
    BoundedHistogram h({10, 20, 30});
    EXPECT_EQ(h.numBuckets(), 4u);
}

TEST(BoundedHistogram, ValuesLandInHalfOpenBuckets)
{
    BoundedHistogram h({10, 20});
    h.add(0);   // < 10
    h.add(9);   // < 10
    h.add(10);  // [10, 20)
    h.add(19);  // [10, 20)
    h.add(20);  // >= 20
    h.add(100); // >= 20
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 2u);
    EXPECT_EQ(h.total(), 6u);
}

TEST(BoundedHistogram, WeightsAccumulate)
{
    BoundedHistogram h({5});
    h.add(1, 10);
    h.add(7, 3);
    EXPECT_EQ(h.count(0), 10u);
    EXPECT_EQ(h.count(1), 3u);
    EXPECT_EQ(h.total(), 13u);
}

TEST(BoundedHistogram, FractionsSumToOne)
{
    BoundedHistogram h({100, 200, 300});
    for (std::uint64_t v : {50u, 150u, 250u, 350u, 351u})
        h.add(v);
    double sum = 0;
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        sum += h.fraction(i);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BoundedHistogram, EmptyFractionIsZero)
{
    BoundedHistogram h({10});
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

TEST(BoundedHistogram, LabelsDescribeRanges)
{
    BoundedHistogram h({10, 20});
    EXPECT_EQ(h.bucketLabel(0), "< 10");
    EXPECT_EQ(h.bucketLabel(1), "[10, 20)");
    EXPECT_EQ(h.bucketLabel(2), ">= 20");
}

TEST(BoundedHistogram, ResetClearsCounts)
{
    BoundedHistogram h({10});
    h.add(3);
    h.add(30);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(0), 0u);
    EXPECT_EQ(h.count(1), 0u);
}

TEST(BoundedHistogram, RequiresStrictlyIncreasingBoundaries)
{
    EXPECT_THROW(BoundedHistogram({}), check::CheckError);
    EXPECT_THROW(BoundedHistogram({10, 10}), check::CheckError);
    EXPECT_THROW(BoundedHistogram({20, 10}), check::CheckError);
}

TEST(SampleStats, EmptyIsZero)
{
    SampleStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleStats, TracksMinMaxMeanSum)
{
    SampleStats s;
    for (double v : {4.0, 8.0, 6.0, 2.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.sum(), 20.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(SampleStats, WelfordMatchesDirectVariance)
{
    SampleStats s;
    const double vals[] = {1.5, 2.5, 9.0, -3.0, 4.25, 0.0};
    double mean = 0;
    for (double v : vals) {
        s.add(v);
        mean += v;
    }
    mean /= 6.0;
    double var = 0;
    for (double v : vals)
        var += (v - mean) * (v - mean);
    var /= 6.0;
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(SampleStats, SingleSampleHasZeroVariance)
{
    SampleStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(SampleStats, ResetRestoresEmptyState)
{
    SampleStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

} // namespace
} // namespace rrm
