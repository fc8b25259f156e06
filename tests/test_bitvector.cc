/**
 * @file
 * Tests for the fixed-width BitVector.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitvector.hh"
#include "common/check.hh"

namespace rrm
{
namespace
{

class BitVectorWidths : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(BitVectorWidths, StartsAllClear)
{
    BitVector v(GetParam());
    EXPECT_EQ(v.size(), GetParam());
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    EXPECT_EQ(v.popcount(), 0u);
    for (std::size_t i = 0; i < v.size(); ++i)
        ASSERT_FALSE(v.test(i));
}

TEST_P(BitVectorWidths, SetTestClearRoundTrip)
{
    BitVector v(GetParam());
    if (v.size() == 0)
        return;
    const std::size_t probes[] = {0, v.size() / 2, v.size() - 1};
    for (std::size_t i : probes) {
        v.set(i);
        EXPECT_TRUE(v.test(i));
    }
    EXPECT_TRUE(v.any());
    for (std::size_t i : probes)
        v.clear(i);
    EXPECT_TRUE(v.none());
}

TEST_P(BitVectorWidths, PopcountTracksSets)
{
    BitVector v(GetParam());
    std::size_t expected = 0;
    for (std::size_t i = 0; i < v.size(); i += 3) {
        v.set(i);
        ++expected;
    }
    EXPECT_EQ(v.popcount(), expected);
    // Setting a bit twice must not double-count.
    if (v.size() > 0) {
        v.set(0);
        EXPECT_EQ(v.popcount(), expected);
    }
}

TEST_P(BitVectorWidths, ForEachSetVisitsInOrder)
{
    BitVector v(GetParam());
    std::vector<std::size_t> want;
    for (std::size_t i = 1; i < v.size(); i *= 2) {
        v.set(i);
        want.push_back(i);
    }
    std::vector<std::size_t> got;
    v.forEachSet([&](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, want);
}

TEST_P(BitVectorWidths, ResetClearsEverything)
{
    BitVector v(GetParam());
    for (std::size_t i = 0; i < v.size(); ++i)
        v.set(i);
    v.reset();
    EXPECT_TRUE(v.none());
    EXPECT_EQ(v.popcount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidths,
                         ::testing::Values(1, 7, 63, 64, 65, 128, 256));

TEST(BitVector, OutOfRangePanics)
{
    BitVector v(64);
    EXPECT_THROW(v.test(64), check::CheckError);
    EXPECT_THROW(v.set(64), check::CheckError);
    EXPECT_THROW(v.clear(1000), check::CheckError);
}

TEST(BitVector, EqualityComparesContentAndWidth)
{
    BitVector a(64), b(64), c(65);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
    a.set(5);
    EXPECT_FALSE(a == b);
    b.set(5);
    EXPECT_TRUE(a == b);
}

TEST(BitVector, WordBoundaryBitsAreIndependent)
{
    BitVector v(128);
    v.set(63);
    v.set(64);
    EXPECT_TRUE(v.test(63));
    EXPECT_TRUE(v.test(64));
    v.clear(63);
    EXPECT_FALSE(v.test(63));
    EXPECT_TRUE(v.test(64));
}

} // namespace
} // namespace rrm
