/**
 * @file
 * Small numeric helpers: power-of-two math and geometric means.
 */

#ifndef RRM_COMMON_MATH_UTIL_HH
#define RRM_COMMON_MATH_UTIL_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "check.hh"

namespace rrm
{

/** True if v is a power of two (v > 0). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. @pre isPowerOfTwo(v). */
inline unsigned
floorLog2(std::uint64_t v)
{
    RRM_CHECK(v != 0, "floorLog2(0) undefined");
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** Smallest number of bits able to represent values 0..v. */
inline unsigned
bitsFor(std::uint64_t v)
{
    unsigned bits = 0;
    while (v) {
        ++bits;
        v >>= 1;
    }
    return bits == 0 ? 1 : bits;
}

/** Integer ceiling division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Geometric mean of a sequence of positive values.
 * Used for cross-workload performance/lifetime summaries, matching the
 * paper's reporting convention.
 */
inline double
geomean(std::span<const double> values)
{
    RRM_CHECK(!values.empty(), "geomean of empty set");
    double log_sum = 0.0;
    for (double v : values) {
        RRM_CHECK(v > 0.0, "geomean requires positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace rrm

#endif // RRM_COMMON_MATH_UTIL_HH
