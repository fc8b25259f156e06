/**
 * @file
 * Tests for the deterministic PRNG, the geometric gap sampler and the
 * Zipf sampler.
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

TEST(GeometricSampler, MeanMatches)
{
    Random rng(33);
    for (double mean : {1.0, 2.0, 10.0, 50.0}) {
        const GeometricSampler gap(mean);
        double sum = 0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(gap.sample(rng));
        EXPECT_NEAR(sum / n, mean, mean * 0.05) << "mean " << mean;
    }
}

TEST(GeometricSampler, AtLeastOne)
{
    Random rng(41);
    const GeometricSampler gap(3.0);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(gap.sample(rng), 1u);
}

TEST(GeometricSampler, BelowOneMeanPanics)
{
    EXPECT_THROW(GeometricSampler{0.5}, check::CheckError);
}

TEST(GeometricSampler, MatchesTheClosedFormBitForBit)
{
    // Every trace's instruction gaps come from this formula, so the
    // run digests depend on each draw rounding exactly as written
    // here: one uniform per draw, divided (not multiplied by a
    // reciprocal) by log1p(-1/mean). A mean of 1 draws nothing.
    for (const double mean : {1.0, 1.5, 1000.0 / 48.0, 1e4}) {
        const GeometricSampler gap(mean);
        Random rng(7);
        Random twin(7);
        for (int i = 0; i < 100000; ++i) {
            std::uint64_t want = 1;
            if (mean != 1.0) {
                double u = twin.uniformDouble();
                if (u <= 0.0)
                    u = 0x1.0p-53;
                const double v =
                    std::ceil(std::log(u) / std::log1p(-1.0 / mean));
                want = v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
            }
            ASSERT_EQ(gap.sample(rng), want)
                << "mean " << mean << " draw " << i;
        }
        EXPECT_EQ(rng.state(), twin.state()) << "mean " << mean;
    }
}

/** A generator whose next uniformDouble() is k * 2^-53 (k < 2^53). */
Random
drawingNext(std::uint64_t k)
{
    // xoshiro256** returns rotl(s[1] * 5, 7) * 9 and uniformDouble()
    // keeps its top 53 bits: invert both steps for s[1].
    const auto inverse = [](std::uint64_t a) {
        std::uint64_t x = a; // Newton's iteration for odd a, mod 2^64
        for (int i = 0; i < 5; ++i)
            x *= 2 - a * x;
        return x;
    };
    const std::uint64_t rotated = (k << 11) * inverse(9);
    Random rng;
    rng.setState({0, ((rotated >> 7) | (rotated << 57)) * inverse(5), 0, 0});
    return rng;
}

TEST(GeometricSampler, DividesRatherThanMultiplyingByTheReciprocal)
{
    // Random draws almost never land where the two roundings differ,
    // so the closed-form test above cannot tell them apart. At these
    // uniforms log(u) / log1p(-1/mean) falls within an ulp of an
    // integer, and a multiply by the reciprocal rounds across it.
    struct Point
    {
        double mean;
        std::uint64_t k; ///< u = k * 2^-53
        std::uint64_t gap;
    };
    for (const Point &p : {Point{2.0, 1ULL << 24, 30},
                           Point{1000.0 / 48.0, 6383346345595854, 7},
                           Point{1000.0 / 48.0, 4523838033935406, 14},
                           Point{1e4, 8728753748856072, 315}}) {
        const double u = static_cast<double>(p.k) * 0x1.0p-53;
        const double keep = std::log1p(-1.0 / p.mean);
        ASSERT_EQ(std::ceil(std::log(u) / keep), p.gap) << p.k;
        ASSERT_NE(std::ceil(std::log(u) * (1.0 / keep)), p.gap) << p.k;
        ASSERT_EQ(drawingNext(p.k).uniformDouble(), u) << p.k;
        Random rng = drawingNext(p.k);
        EXPECT_EQ(GeometricSampler(p.mean).sample(rng), p.gap)
            << "mean " << p.mean << " u " << u;
    }
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
