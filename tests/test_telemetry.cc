/**
 * @file
 * Hot-path telemetry tests: stat registration and hook wiring, the
 * clamping contract of recordRefreshPressure, end-to-end collection
 * through a real System run, and the PR 5 golden guarantee — turning
 * telemetry ON must not change a byte of the run record or sampled
 * time series, because the telemetry tree is standalone (never
 * attached to the System's stat root).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/telemetry.hh"
#include "system/system.hh"
#include "test_scoped_env.hh"

#ifndef RRM_GOLDEN_DIR
#error "RRM_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace rrm
{
namespace
{

TEST(Telemetry, RegistersEveryHookNonNull)
{
    obs::Telemetry t;
    const EventQueueTelemetry *q = t.queueHooks();
    ASSERT_NE(q, nullptr);
    EXPECT_NE(q->executedByPriority, nullptr);
    EXPECT_NE(q->scheduleLatency, nullptr);
    EXPECT_NE(q->queueDepth, nullptr);
    const obs::WritePathTelemetry *w = t.writePathHooks();
    ASSERT_NE(w, nullptr);
    EXPECT_NE(w->writebackOccupancy, nullptr);
    EXPECT_NE(w->refreshOverflowOccupancy, nullptr);
}

TEST(Telemetry, StatsLiveUnderTheStandaloneTelemetryRoot)
{
    obs::Telemetry t;
    EXPECT_EQ(t.statsRoot().name(), "telemetry");
    for (const char *name :
         {"eventsByPriority", "scheduleLatency", "queueDepth",
          "writebackOccupancy", "refreshOverflowOccupancy",
          "refreshPressure"}) {
        EXPECT_NE(t.statsRoot().find(name), nullptr)
            << "missing telemetry stat: " << name;
    }
}

TEST(Telemetry, RefreshPressureIsClampedToPercent)
{
    obs::Telemetry t;
    t.recordRefreshPressure(-0.5); // clamps to 0
    t.recordRefreshPressure(0.5);  // 50
    t.recordRefreshPressure(2.0);  // clamps to 100
    const auto *h = dynamic_cast<const stats::HistogramStat *>(
        t.statsRoot().find("refreshPressure"));
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->samples(), 3u);
    EXPECT_EQ(h->minSample(), 0u);
    EXPECT_EQ(h->maxSample(), 100u);
}

TEST(Telemetry, ExportsContainEveryStat)
{
    obs::Telemetry t;
    t.recordRefreshPressure(0.25);

    std::ostringstream json;
    t.writeJson(json);
    for (const char *name :
         {"eventsByPriority", "scheduleLatency", "queueDepth",
          "refreshPressure"}) {
        EXPECT_NE(json.str().find(name), std::string::npos) << name;
    }
    EXPECT_EQ(json.str().front(), '{');
}

sys::SystemConfig
smallConfig()
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("GemsFDTD");
    cfg.scheme = sys::Scheme::rrmScheme();
    cfg.windowSeconds = 0.002;
    return cfg;
}

TEST(Telemetry, SystemRunPopulatesQueueAndWritePathHistograms)
{
    sys::SystemConfig cfg = smallConfig();
    cfg.obs.telemetryJsonFile = "telemetry_populates.telemetry.json";
    sys::System system(std::move(cfg));
    system.run();

    ASSERT_NE(system.telemetry(), nullptr);
    const EventQueueTelemetry *q = system.telemetry()->queueHooks();
    EXPECT_GT(q->executedByPriority->total(), 0.0);
    EXPECT_GT(q->scheduleLatency->samples(), 0u);
    EXPECT_GT(q->queueDepth->samples(), 0u);
    const obs::WritePathTelemetry *w =
        system.telemetry()->writePathHooks();
    EXPECT_GT(w->writebackOccupancy->samples(), 0u);
}

TEST(Telemetry, OffByDefault)
{
    sys::System system(smallConfig());
    EXPECT_EQ(system.telemetry(), nullptr);
}

TEST(Telemetry, OutputFileImpliesCollection)
{
    sys::SystemConfig cfg = smallConfig();
    cfg.obs.telemetryJsonFile = "telemetry_implied.telemetry.json";
    sys::System system(std::move(cfg));
    system.run();
    ASSERT_NE(system.telemetry(), nullptr);

    std::ifstream is("telemetry_implied.telemetry.json");
    ASSERT_TRUE(is.good());
    std::ostringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("queueDepth"), std::string::npos);
}

// ---- Golden byte-identity (the PR 5 contract) ----

/** Drop the volatile metadata lines of a run record. */
std::string
normalize(const std::string &text)
{
    std::istringstream in(text);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"gitDescribe\"") != std::string::npos ||
            line.find("\"timestampUtc\"") != std::string::npos) {
            continue;
        }
        out += line;
        out += '\n';
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * The frozen configuration of tests/test_policy_golden.cc, plus
 * telemetry. Telemetry must be invisible to the run record and the
 * sample CSV: its stats tree is standalone and its output goes to
 * separate files.
 */
TEST(TelemetryGolden, RecordsAreByteIdenticalWithTelemetryOn)
{
    const test::ScopedEnv epoch("SOURCE_DATE_EPOCH", "0");

    const std::string stem = "telemetry_golden.RRM";
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("GemsFDTD");
    cfg.scheme = sys::parseScheme("RRM");
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.060;
    cfg.warmupFraction = 0.2;
    cfg.seed = 7;
    cfg.obs.runRecordFile = stem + ".json";
    cfg.obs.sampleCsvFile = stem + ".csv";
    cfg.obs.telemetryJsonFile = stem + ".telemetry.json";
    {
        sys::System system(std::move(cfg));
        system.run();
    }

    for (const char *ext : {".json", ".csv"}) {
        const std::string produced = normalize(readFile(stem + ext));
        const std::string golden = readFile(
            std::string(RRM_GOLDEN_DIR) + "/policy.RRM" + ext);
        EXPECT_EQ(produced, golden)
            << ext
            << ": enabling telemetry changed the run output; the "
               "telemetry stats tree must stay off the System's stat "
               "root";
    }
    // And the telemetry file itself was written.
    EXPECT_NE(readFile(stem + ".telemetry.json").find("queueDepth"),
              std::string::npos);
}

} // namespace
} // namespace rrm
