/**
 * @file
 * Tests for the numeric helpers.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/check.hh"
#include "common/math_util.hh"

namespace rrm
{
namespace
{

TEST(MathUtil, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(MathUtil, FloorLog2ExactPowers)
{
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(floorLog2(1ULL << i), i);
}

TEST(MathUtil, FloorLog2RoundsDown)
{
    EXPECT_EQ(floorLog2(5), 2u);
    EXPECT_EQ(floorLog2(1023), 9u);
}

TEST(MathUtil, FloorLog2ZeroPanics)
{
    EXPECT_THROW(floorLog2(0), check::CheckError);
}

TEST(MathUtil, BitsFor)
{
    EXPECT_EQ(bitsFor(0), 1u);
    EXPECT_EQ(bitsFor(1), 1u);
    EXPECT_EQ(bitsFor(2), 2u);
    EXPECT_EQ(bitsFor(15), 4u);
    EXPECT_EQ(bitsFor(16), 5u);
    EXPECT_EQ(bitsFor(64), 7u);
}

TEST(MathUtil, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
    EXPECT_EQ(divCeil(100, 7), 15u);
}

TEST(MathUtil, GeomeanOfEqualValuesIsThatValue)
{
    const std::array<double, 3> v = {4.0, 4.0, 4.0};
    EXPECT_NEAR(geomean(v), 4.0, 1e-12);
}

TEST(MathUtil, GeomeanKnownValue)
{
    const std::array<double, 2> v = {2.0, 8.0};
    EXPECT_NEAR(geomean(v), 4.0, 1e-12);
}

TEST(MathUtil, GeomeanBelowArithmeticMean)
{
    const std::array<double, 3> v = {1.0, 10.0, 100.0};
    EXPECT_LT(geomean(v), 37.0);
    EXPECT_NEAR(geomean(v), 10.0, 1e-9);
}

TEST(MathUtil, GeomeanRejectsEmptyAndNonPositive)
{
    EXPECT_THROW(geomean({}), check::CheckError);
    const std::array<double, 2> with_zero = {1.0, 0.0};
    EXPECT_THROW(geomean(with_zero), check::CheckError);
    const std::array<double, 2> negative = {1.0, -2.0};
    EXPECT_THROW(geomean(negative), check::CheckError);
}

} // namespace
} // namespace rrm
