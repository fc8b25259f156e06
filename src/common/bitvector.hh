/**
 * @file
 * Fixed-width bit-vector view over caller-owned 64-bit words.
 *
 * Models hardware bit-vector state such as the RRM entry's
 * short_retention_vector, whose width depends on the configured
 * Retention Region size (region bytes / 64-byte blocks: 32..256 bits).
 * The owner keeps many vectors in one flat word array and hands out
 * views, so a table of vectors costs no allocation per vector. The view
 * exposes the operations the RRM needs: set/clear/test, popcount,
 * find-all-set. std::vector<bool> is avoided deliberately
 * (proxy-reference pitfalls, no popcount access).
 */

#ifndef RRM_COMMON_BITVECTOR_HH
#define RRM_COMMON_BITVECTOR_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "check.hh"

namespace rrm
{

/**
 * A view of `size()` bits stored in words[0 .. wordsFor(size())).
 * Word is std::uint64_t (BitVector) or const std::uint64_t
 * (ConstBitVector, read-only).
 */
template <typename Word>
class BasicBitVector
{
    static_assert(std::is_same_v<std::remove_const_t<Word>, std::uint64_t>);

  public:
    /** Number of words that hold `num_bits` bits. */
    static constexpr std::size_t
    wordsFor(std::size_t num_bits)
    {
        return (num_bits + 63) / 64;
    }

    BasicBitVector(Word *words, std::size_t num_bits)
        : words_(words), numBits_(num_bits)
    {}

    std::size_t size() const { return numBits_; }

    bool
    test(std::size_t i) const
    {
        checkIndex(i);
        return (words_[i >> 6] >> (i & 63)) & 1ULL;
    }

    void
    set(std::size_t i)
        requires(!std::is_const_v<Word>)
    {
        checkIndex(i);
        words_[i >> 6] |= (1ULL << (i & 63));
    }

    void
    clear(std::size_t i)
        requires(!std::is_const_v<Word>)
    {
        checkIndex(i);
        words_[i >> 6] &= ~(1ULL << (i & 63));
    }

    /** Clear every bit. */
    void
    reset()
        requires(!std::is_const_v<Word>)
    {
        for (std::size_t wi = 0; wi < numWords(); ++wi)
            words_[wi] = 0;
    }

    /** Number of set bits. */
    std::size_t
    popcount() const
    {
        std::size_t n = 0;
        for (std::size_t wi = 0; wi < numWords(); ++wi)
            n += static_cast<std::size_t>(std::popcount(words_[wi]));
        return n;
    }

    /** True if no bit is set. */
    bool
    none() const
    {
        for (std::size_t wi = 0; wi < numWords(); ++wi)
            if (words_[wi])
                return false;
        return true;
    }

    /** True if any bit is set. */
    bool any() const { return !none(); }

    /**
     * Invoke fn(index) for every set bit, in increasing index order.
     * Used by the RRM selective-refresh and demotion paths to walk the
     * short-retention blocks of an entry.
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < numWords(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w) {
                const int bit = std::countr_zero(w);
                fn(wi * 64 + static_cast<std::size_t>(bit));
                w &= w - 1;
            }
        }
    }

  private:
    std::size_t numWords() const { return wordsFor(numBits_); }

    void
    checkIndex(std::size_t i) const
    {
        RRM_CHECK(i < numBits_, "bit index ", i, " out of range (width ",
                  numBits_, ")");
    }

    Word *words_;
    std::size_t numBits_;
};

using BitVector = BasicBitVector<std::uint64_t>;
using ConstBitVector = BasicBitVector<const std::uint64_t>;

} // namespace rrm

#endif // RRM_COMMON_BITVECTOR_HH
