/**
 * @file
 * TraceSink / TraceWriter / RRM_TRACE behaviour: the sink counts and
 * streams every event to its writer, writer formats, and the macro's
 * evaluation guarantee.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/check.hh"
#include "obs/trace.hh"
#include "test_collecting_writer.hh"

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

TEST(TraceSink, NeedsAWriter)
{
    EXPECT_THROW(TraceSink(nullptr), check::CheckError);
}

TEST(TraceMacro, EvaluatesFieldsOnlyWithASink)
{
    std::vector<TraceEvent> seen;
    TraceSink sink(std::make_unique<test::CollectingWriter>(seen));
    int evaluations = 0;
    const auto costly = [&] {
        ++evaluations;
        return 1.0;
    };

    // A live sink records and evaluates once.
    RRM_TRACE(&sink, 5, TraceCategory::Refresh, "r",
              RRM_TF("v", costly()));
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(sink.recorded(), 1u);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].tick, 5u);

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
    TraceSink sink(std::make_unique<test::CollectingWriter>(seen));
    for (int i = 0; i < 100; ++i)
        sink.record(event(i, i));
    EXPECT_EQ(sink.recorded(), 100u);
    ASSERT_EQ(seen.size(), 100u);
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i].tick, i);
}
