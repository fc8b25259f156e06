/**
 * @file
 * TraceSink / TraceWriter / RRM_TRACE behaviour: ring buffering with
 * drop accounting, category filtering, writer formats, attach-time
 * flushing, and the macro's evaluation guarantees.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "obs/trace.hh"

using namespace rrm;
using namespace rrm::obs;

namespace
{

TraceEvent
event(Tick tick, double value)
{
    return makeTraceEvent(tick, TraceCategory::RrmLifecycle, "ev",
                          RRM_TF("v", value));
}

/** Writer that collects events into a vector. */
class CollectingWriter : public TraceWriter
{
  public:
    explicit CollectingWriter(std::vector<TraceEvent> &out) : out_(out) {}

    void write(const TraceEvent &ev) override { out_.push_back(ev); }

  private:
    std::vector<TraceEvent> &out_;
};

} // namespace

TEST(TraceEvent, CountsLeadingPopulatedFields)
{
    EXPECT_EQ(makeTraceEvent(0, TraceCategory::Refresh, "e").numFields(),
              0u);
    EXPECT_EQ(makeTraceEvent(0, TraceCategory::Refresh, "e",
                             RRM_TF("a", 1), RRM_TF("b", 2))
                  .numFields(),
              2u);
    EXPECT_EQ(makeTraceEvent(0, TraceCategory::Refresh, "e",
                             RRM_TF("a", 1), RRM_TF("b", 2),
                             RRM_TF("c", 3), RRM_TF("d", 4))
                  .numFields(),
              4u);
}

TEST(TraceCategories, Names)
{
    EXPECT_STREQ(traceCategoryName(TraceCategory::RrmLifecycle), "rrm");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Refresh), "refresh");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Queue), "queue");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Sampler), "sampler");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Fault), "fault");
}

TEST(TraceSink, RingKeepsMostRecentAndCountsDrops)
{
    TraceSink sink(4);
    for (int i = 0; i < 10; ++i)
        sink.record(event(i, i));

    EXPECT_EQ(sink.recorded(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    ASSERT_EQ(sink.bufferedCount(), 4u);
    // The four most recent events survive, oldest first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(sink.buffered(i).tick, 6u + i);
}

TEST(TraceSink, AttachingAWriterFlushesTheRingThenStreams)
{
    std::vector<TraceEvent> seen;
    TraceSink sink(8);
    sink.record(event(1, 1.0));
    sink.record(event(2, 2.0));
    EXPECT_EQ(sink.bufferedCount(), 2u);

    sink.setWriter(std::make_unique<CollectingWriter>(seen));
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(sink.bufferedCount(), 0u);

    // Subsequent events stream straight through without buffering.
    sink.record(event(3, 3.0));
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[2].tick, 3u);
    EXPECT_EQ(sink.bufferedCount(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, CategoryMaskGatesEnabled)
{
    TraceSink sink(8, traceBit(TraceCategory::Refresh));
    EXPECT_TRUE(sink.enabled(TraceCategory::Refresh));
    EXPECT_FALSE(sink.enabled(TraceCategory::Queue));
    EXPECT_FALSE(sink.enabled(TraceCategory::RrmLifecycle));

    sink.setCategoryMask(traceAllCategories);
    EXPECT_TRUE(sink.enabled(TraceCategory::Queue));
}

TEST(TraceMacro, SkipsDisabledCategoriesAndNullSinks)
{
    TraceSink sink(8, traceBit(TraceCategory::Refresh));
    int evaluations = 0;
    const auto costly = [&] {
        ++evaluations;
        return 1.0;
    };

    // Masked-off category: fields must not be evaluated.
    RRM_TRACE(&sink, 0, TraceCategory::Queue, "q",
              RRM_TF("v", costly()));
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(sink.recorded(), 0u);

    // Enabled category records and evaluates once.
    RRM_TRACE(&sink, 5, TraceCategory::Refresh, "r",
              RRM_TF("v", costly()));
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(sink.recorded(), 1u);
    EXPECT_EQ(sink.buffered(0).tick, 5u);

    // Null sink: nothing evaluated, nothing recorded.
    TraceSink *null_sink = nullptr;
    RRM_TRACE(null_sink, 0, TraceCategory::Refresh, "r",
              RRM_TF("v", costly()));
    EXPECT_EQ(evaluations, 1);
}

TEST(TraceWriters, JsonlFormat)
{
    std::ostringstream os;
    JsonlTraceWriter writer(os);
    writer.write(makeTraceEvent(42, TraceCategory::Queue, "writeEnq",
                                RRM_TF("channel", 1),
                                RRM_TF("writeQ", 7)));
    EXPECT_EQ(os.str(), "{\"tick\":42,\"cat\":\"queue\","
                        "\"event\":\"writeEnq\",\"channel\":1,"
                        "\"writeQ\":7}\n");
}

TEST(TraceSink, StreamingToAWriterNeverDrops)
{
    std::vector<TraceEvent> seen;
    TraceSink sink(2); // tiny ring would drop heavily if buffering
    sink.setWriter(std::make_unique<CollectingWriter>(seen));
    for (int i = 0; i < 100; ++i)
        sink.record(event(i, i));
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(sink.dropped(), 0u);
}
