/**
 * @file
 * Fixed-capacity dynamic bit vector.
 *
 * Models hardware bit-vector state such as the RRM entry's
 * short_retention_vector, whose width depends on the configured
 * Retention Region size (region bytes / 64-byte blocks: 32..256 bits).
 * std::vector<bool> is avoided deliberately (proxy-reference pitfalls,
 * no popcount access); this class stores words and exposes the
 * operations the RRM needs: set/clear/test, popcount, find-all-set.
 */

#ifndef RRM_COMMON_BITVECTOR_HH
#define RRM_COMMON_BITVECTOR_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "check.hh"

namespace rrm
{

/** Dynamic-width bit vector with word-level popcount and iteration. */
class BitVector
{
  public:
    /** Create an all-zero vector of the given bit width. */
    explicit BitVector(std::size_t num_bits = 0)
        : numBits_(num_bits), words_((num_bits + 63) / 64, 0)
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
    {
        checkIndex(i);
        words_[i >> 6] |= (1ULL << (i & 63));
    }

    void
    clear(std::size_t i)
    {
        checkIndex(i);
        words_[i >> 6] &= ~(1ULL << (i & 63));
    }

    /** Clear every bit. */
    void
    reset()
    {
        for (auto &w : words_)
            w = 0;
    }

    /** Number of set bits. */
    std::size_t
    popcount() const
    {
        std::size_t n = 0;
        for (auto w : words_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** True if no bit is set. */
    bool
    none() const
    {
        for (auto w : words_)
            if (w)
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
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w) {
                const int bit = std::countr_zero(w);
                fn(wi * 64 + static_cast<std::size_t>(bit));
                w &= w - 1;
            }
        }
    }

    bool
    operator==(const BitVector &other) const
    {
        return numBits_ == other.numBits_ && words_ == other.words_;
    }

    /** @{ Raw word access (checkpoint serialization). */
    const std::vector<std::uint64_t> &words() const { return words_; }

    void
    setWords(const std::vector<std::uint64_t> &words)
    {
        RRM_CHECK(words.size() == words_.size(),
                  "bit-vector word count mismatch: have ",
                  words_.size(), ", got ", words.size());
        words_ = words;
    }
    /** @} */

  private:
    void
    checkIndex(std::size_t i) const
    {
        RRM_CHECK(i < numBits_, "bit index ", i, " out of range (width ",
                  numBits_, ")");
    }

    std::size_t numBits_;
    std::vector<std::uint64_t> words_;
};

} // namespace rrm

#endif // RRM_COMMON_BITVECTOR_HH
