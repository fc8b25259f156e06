/**
 * @file
 * TraceSource implementation.
 */

#include "trace/source.hh"

#include "common/check.hh"

namespace rrm::trace
{

TraceSource::TraceSource(const BenchmarkProfile &profile,
                         std::uint64_t seed)
    : gen_(profile, seed)
{
}

TraceSource
TraceSource::generate(const BenchmarkProfile &profile, std::uint64_t seed)
{
    return TraceSource(profile, seed);
}

void
TraceSource::seek(std::uint64_t consumed)
{
    RRM_CHECK(consumed_ == 0,
              "TraceSource::seek() on a stream already in use");
    for (std::uint64_t i = 0; i < consumed; ++i)
        gen_.next();
    consumed_ = consumed;
}

} // namespace rrm::trace
