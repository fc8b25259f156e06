/**
 * @file
 * TraceSource implementation.
 */

#include "trace/source.hh"

#include "common/check.hh"
#include "common/logging.hh"

namespace rrm::trace
{

TraceSource::TraceSource(const BenchmarkProfile &profile,
                         std::uint64_t seed)
    : profile_(&profile), seed_(seed)
{
}

TraceSource
TraceSource::generate(const BenchmarkProfile &profile, std::uint64_t seed)
{
    TraceSource src(profile, seed);
    src.gen_.emplace(profile, seed);
    src.footprint_ = src.gen_->footprintBytes();
    src.meanGap_ = src.gen_->meanGapInstructions();
    return src;
}

TraceSource
TraceSource::pack(std::shared_ptr<TracePackReader> reader,
                  const BenchmarkProfile &profile, std::uint64_t seed)
{
    const TracePackHeader &h = reader->header();
    if (h.profileName != profile.name) {
        fatal("trace pack '", reader->path(), "' holds profile '",
              h.profileName, "' but the run needs '", profile.name,
              "'");
    }
    if (h.seed != seed) {
        fatal("trace pack '", reader->path(), "' was generated with "
              "seed ", h.seed, " but the run needs seed ", seed,
              " (regenerate with tools/trace-pack)");
    }
    TraceSource src(profile, seed);
    // Cross-check the derived stream parameters too: a profile whose
    // definition drifted since the pack was written must not replay.
    TraceGenerator probe(profile, seed);
    if (h.footprintBytes != probe.footprintBytes() ||
        h.meanGapInstructions != probe.meanGapInstructions()) {
        fatal("trace pack '", reader->path(),
              "' is stale: profile '", profile.name,
              "' has changed since it was packed");
    }
    src.footprint_ = h.footprintBytes;
    src.meanGap_ = h.meanGapInstructions;
    src.replayEnd_ = h.recordCount;
    src.pack_ = std::move(reader);
    return src;
}

void
TraceSource::fastForwardTail(std::uint64_t consumed)
{
    // The pack ran out. Rebuild the generator and discard the
    // records already served; the stream stays byte-identical, the
    // one-time cost is O(consumed).
    inform("trace replay for '", profile_->name, "' seed ", seed_,
           " exhausted after ", consumed,
           " records; continuing with live generation");
    gen_.emplace(*profile_, seed_);
    for (std::uint64_t i = 0; i < consumed; ++i)
        gen_->next();
    pack_.reset();
}

TraceRecord
TraceSource::next()
{
    ++consumed_;
    if (gen_)
        return gen_->next();
    if (pos_ < replayEnd_)
        return pack_->record(pos_++);
    fastForwardTail(pos_);
    return gen_->next();
}

void
TraceSource::seek(std::uint64_t consumed)
{
    RRM_CHECK(consumed_ == 0,
              "TraceSource::seek() on a stream already in use");
    if (gen_) {
        for (std::uint64_t i = 0; i < consumed; ++i)
            gen_->next();
    } else if (consumed <= replayEnd_) {
        pos_ = consumed;
    } else {
        fastForwardTail(consumed);
    }
    consumed_ = consumed;
}

} // namespace rrm::trace
