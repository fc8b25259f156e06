/**
 * @file
 * End-to-end integration tests: whole-system runs across schemes,
 * checking the qualitative relationships the paper reports
 * (performance ordering, lifetime ordering, refresh-wear dominance)
 * plus determinism and config validation. Runs use short windows to
 * stay fast; the full-length reproduction lives in bench/.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/math_util.hh"
#include "system/system.hh"
#include "test_temp_dir.hh"

namespace rrm::sys
{
namespace
{

SystemConfig
quickConfig(const std::string &workload, Scheme scheme)
{
    SystemConfig cfg;
    cfg.workload = trace::workloadFromName(workload);
    cfg.scheme = scheme;
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.012;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    return cfg;
}

SimResults
runQuick(const std::string &workload, Scheme scheme)
{
    System system(quickConfig(workload, scheme));
    return system.run();
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** A run record's "results" and "stats" blocks, as written. */
std::string
resultsAndStats(const std::string &record)
{
    const std::size_t begin = record.find("\n  \"results\": ");
    std::size_t end = record.find(",\n  \"trace\": ");
    if (end == std::string::npos)
        end = record.rfind("\n}");
    if (begin == std::string::npos || end == std::string::npos ||
        end < begin)
        return "";
    return record.substr(begin, end - begin);
}

/** A count in a run record's "trace" block. */
std::uint64_t
traceCount(const std::string &record, const std::string &key)
{
    const std::string quoted = "\"" + key + "\": ";
    const std::size_t at =
        record.find(quoted, record.find("\n  \"trace\": "));
    EXPECT_NE(at, std::string::npos) << "no trace." << key;
    return at == std::string::npos
               ? 0
               : std::stoull(record.substr(at + quoted.size()));
}

TEST(SystemIntegration, RunCompletesAndPopulatesResults)
{
    const SimResults r =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    EXPECT_EQ(r.workload, "GemsFDTD");
    EXPECT_EQ(r.scheme, "Static-7-SETs");
    EXPECT_GT(r.totalInstructions, 0u);
    EXPECT_GT(r.aggregateIpc, 0.0);
    EXPECT_GT(r.mpki, 0.0);
    EXPECT_GT(r.memReads, 0u);
    EXPECT_GT(r.demandWrites, 0u);
    EXPECT_GT(r.lifetimeYears, 0.0);
    EXPECT_NEAR(r.windowSeconds, 0.009, 1e-9);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_GT(r.instructions[c], 0u) << "core " << c;
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const SimResults a =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    const SimResults b =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.demandWrites, b.demandWrites);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_DOUBLE_EQ(a.aggregateIpc, b.aggregateIpc);
}

TEST(SystemIntegration, SeedChangesTheRun)
{
    SystemConfig cfg = quickConfig(
        "zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    cfg.seed = 99;
    System system(std::move(cfg));
    const SimResults b = system.run();
    const SimResults a =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    EXPECT_NE(a.totalInstructions, b.totalInstructions);
}

TEST(SystemIntegration, ShorterWritesGiveHigherIpc)
{
    const SimResults slow =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    const SimResults fast =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_GT(fast.aggregateIpc, slow.aggregateIpc * 1.05);
}

TEST(SystemIntegration, RrmSitsBetweenTheStaticExtremes)
{
    const SimResults slow =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    const SimResults fast =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets3));
    const SimResults rrm = runQuick("GemsFDTD", Scheme::rrmScheme());
    // Performance: above the slow baseline, below (or at) the fast one.
    EXPECT_GT(rrm.aggregateIpc, slow.aggregateIpc);
    EXPECT_LT(rrm.aggregateIpc, fast.aggregateIpc * 1.02);
    // Lifetime: far above Static-3, below Static-7.
    EXPECT_GT(rrm.lifetimeYears, 3.0 * fast.lifetimeYears);
    EXPECT_LT(rrm.lifetimeYears, slow.lifetimeYears * 1.02);
}

TEST(SystemIntegration, RrmIssuesFastWritesAndRefreshes)
{
    // Use a stronger time compression so a selective-refresh round
    // (interval = 2 s / timeScale) lands inside the short window.
    SystemConfig cfg = quickConfig("GemsFDTD", Scheme::rrmScheme());
    cfg.timeScale = 250.0;
    System system(std::move(cfg));
    const SimResults rrm = system.run();
    EXPECT_GT(rrm.fastWrites, 0u);
    EXPECT_GT(rrm.fastWriteFraction(), 0.10);
    EXPECT_GT(rrm.rrmFastRefreshes, 0u);
    EXPECT_GT(rrm.rrmPromotions + rrm.rrmHotEntriesAtEnd, 0u);
}

TEST(SystemIntegration, StaticSchemesNeverIssueRrmRefreshes)
{
    const SimResults r =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_EQ(r.rrmFastRefreshes, 0u);
    EXPECT_EQ(r.rrmSlowRefreshes, 0u);
    EXPECT_DOUBLE_EQ(r.rrmRefreshRate, 0.0);
    EXPECT_EQ(r.fastWrites, 0u);
}

TEST(SystemIntegration, RefreshWearDominatesStatic3)
{
    const SimResults r =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets3));
    // Whole-array refresh every 2.01 s dwarfs demand writes (Fig 4).
    EXPECT_GT(r.globalRefreshRate, 3.0 * r.demandWriteRate);
}

TEST(SystemIntegration, RefreshWearNegligibleForStatic7AndRrm)
{
    const SimResults s7 =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    EXPECT_LT(s7.globalRefreshRate, 0.1 * s7.demandWriteRate);
    const SimResults rrm = runQuick("GemsFDTD", Scheme::rrmScheme());
    EXPECT_LT(rrm.rrmRefreshRate + rrm.globalRefreshRate,
              0.5 * rrm.demandWriteRate);
}

TEST(SystemIntegration, Static3LifetimeMatchesPaperBallpark)
{
    const SimResults r =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets3));
    // The paper reports ~0.3 years; refresh-bound, so workload
    // differences barely move it.
    EXPECT_GT(r.lifetimeYears, 0.15);
    EXPECT_LT(r.lifetimeYears, 0.35);
}

TEST(SystemIntegration, EnergyDominatedByRefreshForStatic3)
{
    const SimResults r =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_GT(r.globalRefreshPower,
              r.demandWritePower + r.readPower);
}

TEST(SystemIntegration, RrmRefreshPowerIsSmall)
{
    const SimResults r = runQuick("GemsFDTD", Scheme::rrmScheme());
    EXPECT_LT(r.rrmRefreshPower, 0.2 * r.totalPower());
    EXPECT_GT(r.totalPower(), 0.0);
}

TEST(SystemIntegration, MpkiIsSchemeIndependent)
{
    // Cache behaviour is a property of the workload, not the write
    // scheme: MPKI must agree across schemes within noise.
    const SimResults a =
        runQuick("milc", Scheme::staticScheme(pcm::WriteMode::Sets7));
    const SimResults b =
        runQuick("milc", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_NEAR(a.mpki, b.mpki, a.mpki * 0.05);
}

TEST(SystemIntegration, HigherThresholdLowersFastWriteShare)
{
    SystemConfig lo = quickConfig("GemsFDTD", Scheme::rrmScheme());
    lo.rrm.hotThreshold = 4;
    SystemConfig hi = quickConfig("GemsFDTD", Scheme::rrmScheme());
    hi.rrm.hotThreshold = 64;
    System sys_lo(std::move(lo)), sys_hi(std::move(hi));
    const SimResults rlo = sys_lo.run();
    const SimResults rhi = sys_hi.run();
    EXPECT_GT(rlo.fastWriteFraction(), rhi.fastWriteFraction());
}

TEST(SystemIntegration, MixWorkloadsRun)
{
    const SimResults r = runQuick("MIX_2", Scheme::rrmScheme());
    EXPECT_GT(r.totalInstructions, 0u);
    EXPECT_GT(r.demandWrites, 0u);
}

TEST(SystemIntegration, RegionProfilerCapturesHotConcentration)
{
    SystemConfig cfg = quickConfig(
        "GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.profileRegionWrites = true;
    System system(std::move(cfg));
    system.run();
    const RegionWriteProfiler *prof = system.regionProfiler();
    ASSERT_NE(prof, nullptr);
    EXPECT_GT(prof->totalWrites(), 0u);
    // Table III shape: a small fraction of regions gets most writes,
    // and the overwhelming majority of memory is never written.
    EXPECT_LT(prof->hotRegionFraction(0.9), 0.05);
    EXPECT_GT(static_cast<double>(prof->neverWrittenRegions()) /
                  static_cast<double>(prof->totalRegions()),
              0.9);
}

TEST(SystemIntegration, ConfigValidationRejectsNonsense)
{
    SystemConfig cfg;
    EXPECT_THROW(System{cfg}, FatalError); // no workload

    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.timeScale = 0.0;
    EXPECT_THROW(System{std::move(cfg)}, FatalError);

    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.windowSeconds = -1.0;
    EXPECT_THROW(System{std::move(cfg)}, FatalError);

    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.warmupFraction = 1.0;
    EXPECT_THROW(System{std::move(cfg)}, FatalError);

    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.windowSeconds = 1e27; // past the 64-bit tick range
    EXPECT_THROW(System{std::move(cfg)}, FatalError);
}

TEST(SystemIntegration, ConfigValidationAggregatesEveryProblem)
{
    SystemConfig cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.timeScale = 0.0;
    cfg.windowSeconds = -1.0;
    cfg.warmupFraction = 1.5;
    const std::vector<std::string> errors = cfg.validate();
    EXPECT_GE(errors.size(), 3u);

    // The ctor reports all of them in one message, not just the first.
    try {
        System system(std::move(cfg));
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("problem(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("time scale must be >= 1"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("window must be positive"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("warmup fraction must be in [0, 1)"),
                  std::string::npos)
            << msg;
    }
}

TEST(SystemIntegration, ConfigValidationFlagsIgnoredRrmSettings)
{
    // RRM knobs configured under a Static scheme would be silently
    // dead; validation calls it out.
    SystemConfig cfg =
        quickConfig("lbm", Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.rrm.hotThreshold = 8;
    const std::vector<std::string> errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("RRM configured but the scheme is"),
              std::string::npos)
        << errors[0];
}

TEST(SystemIntegration, ConfigValidationNamesEachOverflowingBenchmarkOnce)
{
    // Ten cores cut 8 GiB into 819 MiB slices: mcf's footprint
    // overflows one, libquantum's fits. Five mcf cores are one error.
    SystemConfig cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.workload = trace::workloadFromSpec("mcf:5,libquantum:5");
    cfg.hierarchy.numCores = 10;
    const std::uint64_t mcf =
        trace::benchmarkProfile(trace::Benchmark::Mcf).footprintBytes();
    const std::vector<std::string> errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0], "benchmark mcf footprint of " +
                             std::to_string(mcf) +
                             " bytes exceeds the 858993459-byte "
                             "per-core slice");
}

TEST(SystemIntegration, TraceFilesMatchTheRecordAndLeaveTheRunAlone)
{
    const test::TempDir dir("system_trace");
    SystemConfig plain_cfg = quickConfig("GemsFDTD", Scheme::rrmScheme());
    plain_cfg.windowSeconds = 0.001;
    SystemConfig traced_cfg = plain_cfg;
    plain_cfg.obs.runRecordFile = (dir / "plain.json").string();
    traced_cfg.obs.runRecordFile = (dir / "traced.json").string();
    traced_cfg.obs.traceFile = (dir / "run.jsonl").string();
    traced_cfg.obs.perfettoFile = (dir / "run.perfetto.json").string();

    System traced(std::move(traced_cfg));
    traced.run();
    ASSERT_NE(traced.traceSink(), nullptr);
    const std::uint64_t recorded = traced.traceSink()->recorded();
    EXPECT_GT(recorded, 0u);

    const std::string record = slurp(dir / "traced.json");
    EXPECT_EQ(traceCount(record, "recorded"), recorded);
    EXPECT_EQ(traceCount(record, "dropped"), 0u);
    const std::string jsonl = slurp(dir / "run.jsonl");
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(jsonl.begin(), jsonl.end(), '\n')),
              recorded);
    const std::string perfetto = slurp(dir / "run.perfetto.json");
    ASSERT_GE(perfetto.size(), 4u);
    EXPECT_EQ(perfetto.substr(perfetto.size() - 4), "\n]}\n");

    // Tracing must never perturb a run.
    System plain(std::move(plain_cfg));
    plain.run();
    EXPECT_EQ(plain.traceSink(), nullptr);
    const std::string traced_body = resultsAndStats(record);
    EXPECT_FALSE(traced_body.empty());
    EXPECT_EQ(traced_body, resultsAndStats(slurp(dir / "plain.json")));
}

/** resultsAndStats() without the "fault" objects of both blocks. */
std::string
withoutFaultBlocks(std::string body)
{
    // Both sit four spaces deep: results.fault and the stats group.
    const std::string key = ",\n    \"fault\": {";
    const std::string close = "\n    }";
    for (std::size_t at = body.find(key); at != std::string::npos;
         at = body.find(key)) {
        const std::size_t end = body.find(close, at);
        if (end == std::string::npos)
            return "unterminated fault block";
        body.erase(at, end + close.size() - at);
    }
    return body;
}

TEST(SystemIntegration, RetentionTrackingLeavesTheRunAlone)
{
    // Detailed refresh timing at 250x puts every selective refresh on
    // the bus, so the refresh queues fill: the check must only watch.
    const test::TempDir dir("system_retention");
    SystemConfig plain_cfg = quickConfig("GemsFDTD", Scheme::rrmScheme());
    plain_cfg.timeScale = 250.0;
    plain_cfg.refreshTiming = RefreshTimingMode::Detailed;
    SystemConfig tracked_cfg = plain_cfg;
    tracked_cfg.fault.retentionTracking = true;
    plain_cfg.obs.runRecordFile = (dir / "plain.json").string();
    tracked_cfg.obs.runRecordFile = (dir / "tracked.json").string();

    System tracked(std::move(tracked_cfg));
    const SimResults t = tracked.run();
    System plain(std::move(plain_cfg));
    const SimResults p = plain.run();
    ASSERT_TRUE(t.fault.enabled);
    EXPECT_GT(t.fault.retentionStamps, 0u);
    EXPECT_EQ(t.fault.retentionViolations, 0u);
    EXPECT_FALSE(p.fault.enabled);
    EXPECT_EQ(t.eventsExecuted, p.eventsExecuted);

    const std::string tracked_record = slurp(dir / "tracked.json");
    ASSERT_NE(tracked_record.find("\"retentionViolationRate\""),
              std::string::npos);
    const std::string tracked_body =
        withoutFaultBlocks(resultsAndStats(tracked_record));
    ASSERT_FALSE(tracked_body.empty());
    EXPECT_EQ(tracked_body, resultsAndStats(slurp(dir / "plain.json")));
}

TEST(SystemIntegration, CountOnlyRefreshTimingStillCountsWear)
{
    SystemConfig cfg = quickConfig("GemsFDTD", Scheme::rrmScheme());
    cfg.timeScale = 250.0; // fit a refresh round into the window
    cfg.refreshTiming = RefreshTimingMode::CountOnly;
    System system(std::move(cfg));
    const SimResults r = system.run();
    EXPECT_GT(r.rrmFastRefreshes, 0u);
    EXPECT_GT(r.rrmRefreshRate, 0.0);
}

} // namespace
} // namespace rrm::sys
