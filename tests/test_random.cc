/**
 * @file
 * Tests for the deterministic PRNG and the Zipf sampler.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hh"
#include "common/random.hh"

namespace rrm
{
namespace
{

TEST(Random, SameSeedSameStream)
{
    Random a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Random, UniformStaysBelowBound)
{
    Random rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000000ULL}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.uniform(bound), bound);
    }
}

TEST(Random, UniformZeroBoundPanics)
{
    Random rng(7);
    EXPECT_THROW(rng.uniform(0), check::CheckError);
}

TEST(Random, UniformCoversSmallRange)
{
    Random rng(11);
    bool seen[4] = {false, false, false, false};
    for (int i = 0; i < 1000; ++i)
        seen[rng.uniform(4)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Random, UniformRangeInclusive)
{
    Random rng(5);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformRange(10, 13);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 13u);
        lo |= v == 10;
        hi |= v == 13;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Random, UniformDoubleInUnitInterval)
{
    Random rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(Random, UniformDoubleMeanNearHalf)
{
    Random rng(17);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniformDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, ChanceExtremes)
{
    Random rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Random, ChanceFrequencyTracksProbability)
{
    Random rng(21);
    const int n = 100000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Random, GeometricMeanMatches)
{
    Random rng(33);
    for (double mean : {1.0, 2.0, 10.0, 50.0}) {
        double sum = 0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.geometric(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.05) << "mean " << mean;
    }
}

TEST(Random, GeometricAtLeastOne)
{
    Random rng(41);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(rng.geometric(3.0), 1u);
}

TEST(Random, GeometricBelowOneMeanPanics)
{
    Random rng(2);
    EXPECT_THROW(rng.geometric(0.5), check::CheckError);
}

TEST(Random, SplitStreamsAreDecorrelated)
{
    Random parent(55);
    Random c1 = parent.split();
    Random c2 = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (c1.next() == c2.next())
            ++same;
    EXPECT_EQ(same, 0);
}

// ---- Zipf sampler ----

struct ZipfCase
{
    std::uint64_t n;
    double s;
};

class ZipfTest : public ::testing::TestWithParam<ZipfCase>
{};

TEST_P(ZipfTest, SamplesInRange)
{
    const auto [n, s] = GetParam();
    ZipfSampler zipf(n, s);
    Random rng(77);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(zipf.sample(rng), n);
}

TEST_P(ZipfTest, RankZeroIsModal)
{
    const auto [n, s] = GetParam();
    if (n < 4)
        GTEST_SKIP() << "needs a few items";
    ZipfSampler zipf(n, s);
    Random rng(78);
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf.sample(rng)];
    for (std::uint64_t k = 1; k < std::min<std::uint64_t>(n, 8); ++k)
        EXPECT_GE(counts[0], counts[k]) << "rank " << k;
}

TEST_P(ZipfTest, FrequencyFollowsPowerLaw)
{
    const auto [n, s] = GetParam();
    if (n < 100 || s < 0.5)
        GTEST_SKIP() << "power-law check needs big skewed case";
    ZipfSampler zipf(n, s);
    Random rng(79);
    std::vector<double> counts(n, 0);
    const int samples = 500000;
    for (int i = 0; i < samples; ++i)
        counts[zipf.sample(rng)] += 1;
    // P(rank 1) / P(rank 10) should be ~10^s.
    const double expected = std::pow(10.0, s);
    const double observed = counts[0] / std::max(counts[9], 1.0);
    EXPECT_NEAR(observed, expected, expected * 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfTest,
    ::testing::Values(ZipfCase{1, 0.5}, ZipfCase{2, 1.0},
                      ZipfCase{10, 0.3}, ZipfCase{100, 0.7},
                      ZipfCase{1000, 1.0}, ZipfCase{4096, 0.8},
                      ZipfCase{10000, 1.2}));

TEST(Zipf, InvalidParamsPanic)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), check::CheckError);
    EXPECT_THROW(ZipfSampler(10, 0.0), check::CheckError);
    EXPECT_THROW(ZipfSampler(10, -1.0), check::CheckError);
}

TEST(Zipf, SingleItemAlwaysZero)
{
    ZipfSampler zipf(1, 0.9);
    Random rng(80);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Zipf, HigherSkewConcentratesHead)
{
    Random rng(81);
    ZipfSampler flat(1000, 0.3), steep(1000, 1.2);
    int flat_head = 0, steep_head = 0;
    for (int i = 0; i < 100000; ++i) {
        flat_head += flat.sample(rng) < 10;
        steep_head += steep.sample(rng) < 10;
    }
    EXPECT_GT(steep_head, flat_head);
}

} // namespace
} // namespace rrm
