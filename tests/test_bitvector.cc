/**
 * @file
 * Tests for the fixed-width BitVector view.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitvector.hh"
#include "common/check.hh"

namespace rrm
{
namespace
{

/** Zeroed words for one vector of `bits` bits, and a view of them. */
struct Backed
{
    explicit Backed(std::size_t bits)
        : words(BitVector::wordsFor(bits), 0), v(words.data(), bits)
    {}

    std::vector<std::uint64_t> words;
    BitVector v;
};

class BitVectorWidths : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(BitVectorWidths, StartsAllClear)
{
    Backed backed(GetParam());
    BitVector &v = backed.v;
    EXPECT_EQ(v.size(), GetParam());
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    EXPECT_EQ(v.popcount(), 0u);
    for (std::size_t i = 0; i < v.size(); ++i)
        ASSERT_FALSE(v.test(i));
}

TEST_P(BitVectorWidths, SetTestClearRoundTrip)
{
    Backed backed(GetParam());
    BitVector &v = backed.v;
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
    Backed backed(GetParam());
    BitVector &v = backed.v;
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
    Backed backed(GetParam());
    BitVector &v = backed.v;
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
    Backed backed(GetParam());
    BitVector &v = backed.v;
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
    Backed backed(64);
    BitVector &v = backed.v;
    EXPECT_THROW(v.test(64), check::CheckError);
    EXPECT_THROW(v.set(64), check::CheckError);
    EXPECT_THROW(v.clear(1000), check::CheckError);
}

TEST(BitVector, WordBoundaryBitsAreIndependent)
{
    Backed backed(128);
    BitVector &v = backed.v;
    v.set(63);
    v.set(64);
    EXPECT_TRUE(v.test(63));
    EXPECT_TRUE(v.test(64));
    v.clear(63);
    EXPECT_FALSE(v.test(63));
    EXPECT_TRUE(v.test(64));
}

TEST(BitVector, ViewsShareTheirOwnersWordsOnly)
{
    // Two 96-bit vectors back to back, two words each, as an owner
    // lays out a table of them.
    std::vector<std::uint64_t> words(4, 0);
    BitVector first(words.data(), 96);
    BitVector second(words.data() + 2, 96);
    first.set(95);
    second.set(0);
    EXPECT_EQ(words, (std::vector<std::uint64_t>{0, 1ULL << 31, 1, 0}));
    EXPECT_EQ(first.popcount(), 1u);
    EXPECT_EQ(second.popcount(), 1u);

    // A read-only view sees what the writable one wrote.
    const ConstBitVector reader(words.data(), 96);
    EXPECT_TRUE(reader.test(95));
    EXPECT_FALSE(reader.test(0));
    first.reset();
    EXPECT_TRUE(reader.none());
    EXPECT_TRUE(second.test(0));
    EXPECT_EQ(words, (std::vector<std::uint64_t>{0, 0, 1, 0}));
}

} // namespace
} // namespace rrm
