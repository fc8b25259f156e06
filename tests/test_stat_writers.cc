/**
 * @file
 * Machine-readable stat export: JSON golden files over a hand-built
 * stats tree, the deterministic number/escape helpers, JsonWriter
 * structure management, and the end-to-end
 * guarantee the exporters exist for — two identically seeded
 * simulations export byte-identical stats JSON.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hh"
#include "obs/json.hh"
#include "obs/stat_writers.hh"
#include "system/system.hh"

using namespace rrm;
using namespace rrm::obs;

TEST(JsonEscape, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc\r"), "a\\nb\\tc\\r");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonNumber, IntegersFractionsAndNonFinite)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-3.0), "-3");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
    EXPECT_EQ(jsonNumber(-1.0 / 0.0), "null");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    // At 2^53 and beyond integrality is no longer trustworthy: %g.
    EXPECT_EQ(jsonNumber(9007199254740992.0), "9007199254740992");
}

TEST(JsonWriter, NestedStructuresWithCommaManagement)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("a", 1);
    json.key("b");
    json.beginArray();
    json.value(1.5);
    json.value("s");
    json.value(true);
    json.null();
    json.endArray();
    json.key("c");
    json.beginObject();
    json.endObject();
    json.endObject();
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[1.5,\"s\",true,null],\"c\":{}}");
}

TEST(JsonWriter, PrettyModeIndents)
{
    std::ostringstream os;
    JsonWriter json(os, true);
    json.beginObject();
    json.field("a", 1);
    json.endObject();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, MisuseIsAProgrammingError)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    EXPECT_THROW(json.value(1.0), check::CheckError); // value without key
    EXPECT_THROW(json.endArray(), check::CheckError); // wrong frame type
}

namespace
{

/** A small tree exercising every stat kind plus nesting. */
void
buildTree(stats::StatGroup &root)
{
    root.addScalar("reads", "read count") += 10;
    stats::StatGroup &child = root.addChild("pcm");
    child.addScalar("writes", "write count") += 4;
    child
        .addVector("perBank", "per-bank writes", {"b0", "b1"})
        .add(1, 3.0);
    stats::Scalar &fast = child.addScalar("fast", "fast writes");
    fast += 1;
    child.addFormula("fastFrac", "fast fraction",
                     [&fast] { return fast.value() / 4.0; });
    child.addDistribution("lat", "latency", {100}).add(50);
}

} // namespace

TEST(StatWriters, JsonGoldenFile)
{
    stats::StatGroup root("system");
    buildTree(root);

    std::ostringstream os;
    writeStatsJson(os, root, /*pretty=*/false);
    EXPECT_EQ(os.str(),
              "{\"reads\":10,"
              "\"pcm\":{\"writes\":4,"
              "\"perBank\":{\"bins\":{\"b0\":0,\"b1\":3},\"total\":3},"
              "\"fast\":1,"
              "\"fastFrac\":0.25,"
              "\"lat\":{\"samples\":1,\"mean\":50,"
              "\"buckets\":{\"< 100\":1,\">= 100\":0}}}}\n");
}

namespace
{

/** A separate tree for the histogram stat kind (buildTree predates
 *  it; its golden strings must stay frozen). */
void
buildHistogramTree(stats::StatGroup &root)
{
    stats::HistogramStat &h = root.addHistogram("lat", "latency");
    h.add(0);
    h.add(1);
    h.add(5);
    h.add(6);
}

} // namespace

TEST(StatWriters, HistogramJsonGoldenFormat)
{
    stats::StatGroup root("telemetry");
    buildHistogramTree(root);

    std::ostringstream os;
    writeStatsJson(os, root, /*pretty=*/false);
    EXPECT_EQ(os.str(),
              "{\"lat\":{\"samples\":4,\"mean\":3,\"min\":0,\"max\":6,"
              "\"buckets\":{\"0\":1,\"[1,2)\":1,\"[4,8)\":2}}}\n");
}

TEST(StatWriters, HistogramTextDumpListsMomentsAndBuckets)
{
    stats::StatGroup root("telemetry");
    buildHistogramTree(root);

    std::ostringstream os;
    root.dump(os);
    const std::string text = os.str();
    for (const char *needle :
         {"telemetry.lat::samples", "telemetry.lat::mean",
          "telemetry.lat::min", "telemetry.lat::max",
          "telemetry.lat::0", "telemetry.lat::[1,2)",
          "telemetry.lat::[4,8)"}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing line: " << needle;
    }
    // Empty buckets are elided, not printed as zeros.
    EXPECT_EQ(text.find("telemetry.lat::[2,4)"), std::string::npos);
}

TEST(StatWriters, ReExportIsByteIdentical)
{
    stats::StatGroup root("system");
    buildTree(root);

    std::ostringstream a, b;
    writeStatsJson(a, root);
    writeStatsJson(b, root);
    EXPECT_EQ(a.str(), b.str());
}

/**
 * The whole point of the deterministic formatting contract: two
 * identically configured and seeded simulations export byte-identical
 * stats JSON (golden-file regression workflows depend on this).
 */
TEST(StatWriters, IdenticalSeededRunsExportIdenticalJson)
{
    const auto runOnce = [] {
        sys::SystemConfig cfg;
        cfg.workload = trace::workloadFromName("GemsFDTD");
        cfg.scheme = sys::Scheme::rrmScheme();
        cfg.windowSeconds = 0.002;
        sys::System system(std::move(cfg));
        system.run();
        std::ostringstream os;
        writeStatsJson(os, system.statRoot());
        return os.str();
    };

    const std::string first = runOnce();
    const std::string second = runOnce();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}
