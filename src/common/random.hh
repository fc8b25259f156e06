/**
 * @file
 * Deterministic pseudo random number generation for workload synthesis.
 *
 * All stochastic behaviour in the simulator flows through Random so that
 * a (seed, config) pair fully determines a run. The engine is
 * xoshiro256**, which is fast enough to sit on the trace-generation hot
 * path and has no measurable correlation artifacts at the scales used
 * here.
 */

#ifndef RRM_COMMON_RANDOM_HH
#define RRM_COMMON_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>

#include "check.hh"

namespace rrm
{

/** Deterministic xoshiro256** PRNG with convenience distributions. */
class Random
{
  public:
    /** Seed the generator; equal seeds give equal streams. */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    uniform(std::uint64_t bound)
    {
        RRM_CHECK(bound > 0, "uniform() bound must be positive");
        // Lemire's multiply-shift rejection-free mapping; the tiny
        // modulo bias is irrelevant for workload synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi]. @pre lo <= hi. */
    std::uint64_t
    uniformRange(std::uint64_t lo, std::uint64_t hi)
    {
        RRM_CHECK(lo <= hi, "uniformRange() needs lo <= hi");
        return lo + uniform(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniformDouble();

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool chance(double p);

    /**
     * Split off an independent child generator. Children seeded from
     * distinct parent draws produce decorrelated streams, which lets
     * each core / pattern own a private RNG while remaining fully
     * reproducible from the top-level seed.
     */
    Random split();

    /** @{ Raw engine state, for checkpoint save/restore. */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = s[static_cast<std::size_t>(i)];
    }
    /** @} */

  private:
    std::uint64_t state_[4];
};

/**
 * Sampler for geometric inter-arrival gaps (values >= 1) with a fixed
 * mean, by inversion: ceil(log(u) / log1p(-1/mean)) for one uniform
 * u. The divisor is computed once here; each draw still divides by it
 * (a multiply by its reciprocal rounds across an integer at some u, and
 * so would change the streams built on these gaps).
 */
class GeometricSampler
{
  public:
    /** @param mean Mean gap (>= 1; exactly 1 always draws 1). */
    explicit GeometricSampler(double mean);

    /** Draw one gap; consumes one value of `rng` unless mean is 1. */
    std::uint64_t
    sample(Random &rng) const
    {
        if (mean_ == 1.0)
            return 1;
        double u = rng.uniformDouble();
        // Avoid log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        const double v = std::ceil(std::log(u) / logKeep_);
        return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
    }

  private:
    double mean_;
    double logKeep_; ///< log1p(-1/mean): log of the per-step miss chance
};

/**
 * Sampler for a Zipf(s) popularity distribution over n items.
 *
 * Uses the classic rejection-inversion method of Hörmann and
 * Derflinger, giving O(1) expected time per sample independent of n.
 * Rank 0 is the most popular item.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items (>= 1).
     * @param s Skew exponent (> 0, != 1 handled, s == 1 handled).
     */
    ZipfSampler(std::uint64_t n, double s);

    /** Draw an item rank in [0, n). */
    std::uint64_t sample(Random &rng) const;

  private:
    double h(double x) const;
    double hInverse(double x) const;

    std::uint64_t n_;
    double s_;
    double hX1_;
    double hXn_;
    double scale_;
};

} // namespace rrm

#endif // RRM_COMMON_RANDOM_HH
