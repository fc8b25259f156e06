/**
 * @file
 * TraceSource: the instruction stream a core consumes. It is the
 * TraceGenerator for (profile, seed) plus a count of the records
 * served, which is the position a checkpoint saves. A resumed run
 * seeks a fresh source back to that position by regenerating and
 * discarding the served records, an O(records) fast-forward that
 * keeps the stream byte-identical.
 */

#ifndef RRM_TRACE_SOURCE_HH
#define RRM_TRACE_SOURCE_HH

#include <cstdint>

#include "trace/generator.hh"

namespace rrm::trace
{

/** Move-only stream handle; owns its generator and position. */
class TraceSource
{
  public:
    static TraceSource generate(const BenchmarkProfile &profile,
                                std::uint64_t seed);

    /** Next record of the stream. */
    TraceRecord
    next()
    {
        ++consumed_;
        return gen_.next();
    }

    /** Records served so far (the checkpointed replay cursor). */
    std::uint64_t consumed() const { return consumed_; }

    /**
     * Checkpoint restore: position the stream as if `consumed`
     * records had already been served. Only legal on a freshly
     * constructed source.
     */
    void seek(std::uint64_t consumed);

  private:
    TraceSource(const BenchmarkProfile &profile, std::uint64_t seed);

    TraceGenerator gen_;
    std::uint64_t consumed_ = 0;
};

} // namespace rrm::trace

#endif // RRM_TRACE_SOURCE_HH
