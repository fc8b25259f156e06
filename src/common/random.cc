/**
 * @file
 * xoshiro256** engine, geometric sampler and Zipf rejection-inversion
 * sampler.
 */

#include "random.hh"

#include <cmath>

namespace rrm
{

namespace
{

/** splitmix64: expands a single seed into well-mixed engine state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Random::Random(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Random::uniformDouble()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Random::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniformDouble() < p;
}

Random
Random::split()
{
    return Random(next() ^ 0xd1b54a32d192ed03ULL);
}

GeometricSampler::GeometricSampler(double mean)
    : mean_(mean)
{
    RRM_CHECK(mean >= 1.0, "GeometricSampler mean must be >= 1, got ",
              mean);
    logKeep_ = std::log1p(-1.0 / mean);
}

// --------------------------------------------------------------------
// ZipfSampler: rejection-inversion after Hörmann & Derflinger (1996).
// hIntegral is the antiderivative of h(x) = x^-s; sampling inverts the
// integral of the dominating density and accepts with the exact ratio.
// --------------------------------------------------------------------

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n), s_(s)
{
    RRM_CHECK(n >= 1, "ZipfSampler needs at least one item");
    RRM_CHECK(s > 0.0, "ZipfSampler skew must be positive");
    hX1_ = h(1.5) - 1.0;
    hXn_ = h(static_cast<double>(n_) + 0.5);
    scale_ = hX1_ - hXn_;
}

double
ZipfSampler::h(double x) const
{
    // Antiderivative of x^-s.
    if (s_ == 1.0)
        return std::log(x);
    return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double
ZipfSampler::hInverse(double x) const
{
    if (s_ == 1.0)
        return std::exp(x);
    return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::uint64_t
ZipfSampler::sample(Random &rng) const
{
    if (n_ == 1)
        return 0;
    while (true) {
        const double u = hXn_ + rng.uniformDouble() * scale_;
        const double x = hInverse(u);
        std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        else if (k > n_)
            k = n_;
        const double kd = static_cast<double>(k);
        // Accept in the unconditional band, or with the exact ratio.
        if (kd - x <= 0.5 ||
            u >= h(kd + 0.5) - std::pow(kd, -s_)) {
            return k - 1;
        }
    }
}

} // namespace rrm
