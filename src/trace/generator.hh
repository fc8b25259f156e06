/**
 * @file
 * TraceGenerator: turns a BenchmarkProfile into an infinite,
 * deterministic stream of TraceRecords.
 */

#ifndef RRM_TRACE_GENERATOR_HH
#define RRM_TRACE_GENERATOR_HH

#include <memory>
#include <vector>

#include "common/random.hh"
#include "trace/access.hh"
#include "trace/benchmark.hh"

namespace rrm::trace
{

/**
 * Synthesizes the memory-instruction stream of one benchmark copy.
 *
 * Component footprints are laid out back to back (64 B aligned) inside
 * the generator's private address space starting at 0; the system maps
 * that space into the core's physical slice. The stream is fully
 * determined by (profile, seed).
 */
class TraceGenerator
{
  public:
    TraceGenerator(const BenchmarkProfile &profile, std::uint64_t seed);

    /** Produce the next memory instruction. */
    TraceRecord next();

    /** Total bytes of address space the stream can touch. */
    std::uint64_t footprintBytes() const { return footprint_; }

    const BenchmarkProfile &profile() const { return profile_; }

  private:
    struct Component
    {
        std::unique_ptr<AccessPattern> pattern;
        Addr base;
        double cumulativeWeight;
    };

    const BenchmarkProfile &profile_;
    Random rng_;
    std::vector<Component> components_;
    std::uint64_t footprint_ = 0;
    /** Memory instruction plus the gap before the next: mean >= 1. */
    GeometricSampler gap_;
};

} // namespace rrm::trace

#endif // RRM_TRACE_GENERATOR_HH
