/**
 * @file
 * Speed-report tests: schema shape, totals accounting, and the
 * determinism contract bench_speed relies on — under
 * SOURCE_DATE_EPOCH every wall metric pins to 0, so the report is
 * byte-identical for any --jobs value (only plan-derived fields
 * remain: ids, statuses, event counts).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "run/runner.hh"
#include "run/speed_report.hh"
#include "system/system.hh"
#include "test_scoped_env.hh"

namespace rrm::run
{
namespace
{

RunPlan
smallPlan()
{
    RunPlan plan;
    for (const char *scheme : {"Static-7-SETs", "RRM"}) {
        sys::SystemConfig cfg;
        cfg.workload = trace::workloadFromName("GemsFDTD");
        cfg.scheme = sys::parseScheme(scheme);
        cfg.windowSeconds = 0.002;
        plan.add(std::move(cfg));
    }
    return plan;
}

std::string
reportFor(unsigned jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    const RunReport report = Runner(opts).execute(smallPlan());
    std::ostringstream os;
    writeSpeedReport(os, "bench_speed", report);
    return os.str();
}

class SpeedReport : public ::testing::Test
{
  protected:
    // Pin the clock: wall metrics collapse to 0 and the report
    // becomes a pure function of the plan.
    const test::ScopedEnv epoch_{"SOURCE_DATE_EPOCH", "0"};
};

TEST_F(SpeedReport, SchemaCarriesRunsAndTotals)
{
    const std::string text = reportFor(1);
    EXPECT_NE(text.find("\"schemaVersion\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"bench\": \"bench_speed\""),
              std::string::npos);
    EXPECT_NE(text.find("\"GemsFDTD.Static-7-SETs\""),
              std::string::npos);
    EXPECT_NE(text.find("\"GemsFDTD.RRM\""), std::string::npos);
    EXPECT_NE(text.find("\"eventsExecuted\""), std::string::npos);
    EXPECT_NE(text.find("\"wallSeconds\""), std::string::npos);
    EXPECT_NE(text.find("\"eventsPerSecond\""), std::string::npos);
    EXPECT_NE(text.find("\"totals\""), std::string::npos);
    EXPECT_NE(text.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(SpeedReport, ByteIdenticalAcrossJobCounts)
{
    const std::string serial = reportFor(1);
    const std::string parallel = reportFor(4);
    EXPECT_EQ(serial, parallel)
        << "BENCH_speed.json must not depend on the worker count "
           "under a pinned clock";
}

TEST_F(SpeedReport, EventCountsAreNonZeroAndDeterministic)
{
    const std::string a = reportFor(2);
    const std::string b = reportFor(2);
    EXPECT_EQ(a, b);
    // The runs did real work: some eventsExecuted field is non-zero.
    EXPECT_EQ(a.find("\"eventsExecuted\": 0,"), std::string::npos)
        << "every run reported zero events:\n"
        << a;
}

} // namespace
} // namespace rrm::run
