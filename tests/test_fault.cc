/**
 * @file
 * The retention check: deadline arithmetic (including the 2.01 s /
 * 0.01 s guardband boundary), the self-armed sweep and its per-channel
 * count, strict mode, checkpoint restore, config validation, and the
 * end-to-end contract that the RRM keeps retention violations at zero
 * where Static-3-SETs accumulates them — with byte-identical records
 * across worker counts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "fault/fault_config.hh"
#include "fault/retention_tracker.hh"
#include "rrm/rrm_config.hh"
#include "run/runner.hh"
#include "test_scoped_env.hh"

namespace rrm::fault
{
namespace
{

namespace fs = std::filesystem;

class FaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        check::setFailurePolicy(check::FailurePolicy::Throw);
    }
};

// ---- RetentionTracker ----

/** A tracker on its own queue, with its stats registered. */
struct TrackerRig
{
    explicit TrackerRig(double time_scale = 1.0, bool strict = false)
        : tracker(time_scale, strict, memctrl::MemoryParams{}, queue)
    {
        tracker.regStats(root);
    }

    double
    stat(const char *name) const
    {
        const auto *s = dynamic_cast<const stats::Scalar *>(
            root.find(std::string("fault.") + name));
        return s ? s->value() : -1.0;
    }

    EventQueue queue;
    stats::StatGroup root{"system"};
    RetentionTracker tracker;
};

TEST_F(FaultTest, TracksOnlyShortRetentionModes)
{
    const TrackerRig rig;
    EXPECT_TRUE(rig.tracker.tracks(pcm::WriteMode::Sets3));
    EXPECT_FALSE(rig.tracker.tracks(pcm::WriteMode::Sets4)); // 24.05 s
    EXPECT_FALSE(rig.tracker.tracks(pcm::WriteMode::Sets7)); // 3054.9 s
}

TEST_F(FaultTest, DeadlineMatchesTable1RetentionAtNativeScale)
{
    const TrackerRig rig;
    EXPECT_EQ(rig.tracker.retentionTicks(pcm::WriteMode::Sets3),
              secondsToTicks(2.01));
}

TEST_F(FaultTest, GuardbandAgainstRrmRefreshCadenceIsTenMillis)
{
    // The RRM refreshes every (2.01 - 0.01) s while the tracker
    // expires 3-SETs blocks after 2.01 s: the margin between the two
    // is exactly the paper's 0.01 s guardband, at any timeScale.
    for (const double scale : {1.0, 50.0, 250.0}) {
        const TrackerRig rig(scale);
        monitor::RrmConfig rrm;
        rrm.timeScale = scale;
        EXPECT_EQ(rig.tracker.retentionTicks(pcm::WriteMode::Sets3) -
                      rrm.shortRetentionInterval(),
                  secondsToTicks(rrm.guardSeconds / scale))
            << "timeScale " << scale;
    }
}

TEST_F(FaultTest, SweepExpiresStrictlyPastDeadlinesOnly)
{
    TrackerRig rig;
    RetentionTracker &t = rig.tracker;
    const Tick r = t.retentionTicks(pcm::WriteMode::Sets3);

    t.recordWrite(0x40, pcm::WriteMode::Sets3, 1000);
    EXPECT_EQ(t.trackedCount(), 1u);
    // Deadline met exactly at `now` is satisfied...
    EXPECT_EQ(t.sweep(1000 + r), 0u);
    // ...one tick later it is violated.
    EXPECT_EQ(t.sweep(1000 + r + 1), 1u);
    EXPECT_EQ(t.trackedCount(), 0u);
    EXPECT_EQ(rig.stat("retentionStamps"), 1.0);
    EXPECT_EQ(rig.stat("retentionViolations"), 1.0);
}

TEST_F(FaultTest, TheArmedSweepCountsEachMissPerChannel)
{
    // Channels interleave every 1 KiB: 0x800 sits on channel 2.
    TrackerRig rig;
    const Tick r = rig.tracker.retentionTicks(pcm::WriteMode::Sets3);
    rig.tracker.recordWrite(0x800, pcm::WriteMode::Sets3, 0);
    rig.queue.run(r);
    EXPECT_EQ(rig.stat("retentionViolations"), 0.0);
    EXPECT_EQ(rig.queue.eventsExecuted(), 0u) << "a sweep with no miss";
    rig.queue.run();
    EXPECT_EQ(rig.queue.eventsExecuted(), 1u);
    EXPECT_EQ(rig.stat("retentionViolations"), 1.0);
    const auto *by_channel = dynamic_cast<const stats::VectorStat *>(
        rig.root.find("fault.retentionViolationsByChannel"));
    ASSERT_NE(by_channel, nullptr);
    EXPECT_EQ(by_channel->value(2), 1.0);
    EXPECT_EQ(by_channel->total(), 1.0);
}

TEST_F(FaultTest, StrictModeFailsOnTheFirstViolation)
{
    TrackerRig rig(1.0, /*strict=*/true);
    rig.tracker.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    EXPECT_THROW(rig.queue.run(), check::CheckError);
}

TEST_F(FaultTest, RefreshReStampsTheDeadline)
{
    TrackerRig rig;
    RetentionTracker &t = rig.tracker;
    const Tick r = t.retentionTicks(pcm::WriteMode::Sets3);
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    t.recordWrite(0x40, pcm::WriteMode::Sets3, r - 10); // the refresh
    EXPECT_EQ(t.sweep(r + 1), 0u);
    EXPECT_EQ(t.nextDeadline(), std::optional<Tick>(r - 10 + r));
}

TEST_F(FaultTest, LongRetentionRewriteClearsTheObligation)
{
    TrackerRig rig;
    RetentionTracker &t = rig.tracker;
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    EXPECT_EQ(t.trackedCount(), 1u);
    t.recordWrite(0x40, pcm::WriteMode::Sets7, 100);
    EXPECT_EQ(t.trackedCount(), 0u);
    EXPECT_EQ(t.sweep(maxTick - 1), 0u);
    rig.queue.run();
    EXPECT_EQ(rig.queue.eventsExecuted(), 0u) << "the sweep stayed armed";
}

TEST_F(FaultTest, NextDeadlineSurvivesLazyHeapInvalidation)
{
    TrackerRig rig;
    RetentionTracker &t = rig.tracker;
    const Tick r = t.retentionTicks(pcm::WriteMode::Sets3);
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    t.recordWrite(0x80, pcm::WriteMode::Sets3, 50);
    // Re-stamp the earliest block: its stale heap top must be
    // discarded, surfacing 0x80's deadline.
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 100);
    EXPECT_EQ(t.nextDeadline(), std::optional<Tick>(50 + r));
    check::ScopedFailurePolicy audit(check::FailurePolicy::LogAndCount);
    EXPECT_EQ(runAudit(t), 0u);
}

TEST_F(FaultTest, RestoreReArmsTheSweepAtItsSavedTick)
{
    TrackerRig saved;
    saved.tracker.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    saved.tracker.recordWrite(0x80, pcm::WriteMode::Sets3, 10);
    ckpt::ChunkWriter w;
    saved.tracker.saveCkpt(w);

    TrackerRig restored;
    ckpt::ChunkReader r(w.data().data(), w.size(), "FLT0");
    restored.tracker.restoreCkpt(r);
    r.expectDone();
    EXPECT_EQ(restored.tracker.trackedCount(), 2u);
    restored.queue.run();
    EXPECT_EQ(restored.stat("retentionViolations"), 2.0);
    EXPECT_EQ(restored.tracker.trackedCount(), 0u);
}

TEST_F(FaultTest, RetentionRestoreBoundsTheCountByThePayload)
{
    TrackerRig rig;
    ckpt::ChunkWriter w;
    w.u64(std::uint64_t{1} << 60); // deadlines claimed...
    w.u64(0x40); // ...but one present
    w.u64(1000);
    ckpt::ChunkReader r(w.data().data(), w.size(), "FLT0");
    EXPECT_THROW(rig.tracker.restoreCkpt(r), ckpt::CkptError);
}

// ---- FaultConfig validation ----

TEST_F(FaultTest, CollectErrorsCatchesBadKnobs)
{
    // Strict mode modifies the retention check: alone it would be
    // silently ignored.
    FaultConfig strict_alone;
    strict_alone.strict = true;
    std::vector<std::string> errors;
    strict_alone.collectErrors(errors);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("would be silently ignored"),
              std::string::npos)
        << errors[0];

    FaultConfig strict_tracking = strict_alone;
    strict_tracking.retentionTracking = true;
    errors.clear();
    strict_tracking.collectErrors(errors);
    EXPECT_TRUE(errors.empty());
}

TEST_F(FaultTest, DefaultConfigIsDisabledAndValid)
{
    const FaultConfig cfg;
    EXPECT_FALSE(cfg.retentionTracking);
    EXPECT_FALSE(cfg.strict);
    std::vector<std::string> errors;
    cfg.collectErrors(errors);
    EXPECT_TRUE(errors.empty());
}

TEST_F(FaultTest, SystemValidateSurfacesFaultErrors)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("lbm");
    cfg.fault.strict = true;
    cfg.wallTimeoutSeconds = -1.0;
    const auto errors = cfg.validate();
    bool fault_error = false, timeout_error = false;
    for (const auto &e : errors) {
        fault_error |= e.find("fault") != std::string::npos;
        timeout_error |= e.find("timeout") != std::string::npos;
    }
    EXPECT_TRUE(fault_error);
    EXPECT_TRUE(timeout_error);
}

// ---- System-level: violations, fault stats, determinism ----

sys::SystemConfig
faultSystemConfig(const sys::Scheme &scheme)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("lbm");
    cfg.scheme = scheme;
    cfg.timeScale = 250.0;
    cfg.windowSeconds = 0.012;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    cfg.fault.retentionTracking = true;
    return cfg;
}

TEST_F(FaultTest, RrmKeepsZeroViolationsWhereStatic3Accumulates)
{
    // Scaled 3-SETs retention at 250x is 8.04 ms against a 12 ms
    // window: blanket fast writes must expire, RRM-refreshed ones
    // must not.
    sys::System static3(faultSystemConfig(
        sys::Scheme::staticScheme(pcm::WriteMode::Sets3)));
    const sys::SimResults r3 = static3.run();
    ASSERT_TRUE(r3.fault.enabled);
    EXPECT_GT(r3.fault.retentionViolations, 0u);
    EXPECT_GT(r3.fault.retentionStamps, 0u);

    sys::System rrm(faultSystemConfig(sys::Scheme::rrmScheme()));
    const sys::SimResults rr = rrm.run();
    ASSERT_TRUE(rr.fault.enabled);
    EXPECT_EQ(rr.fault.retentionViolations, 0u);
    EXPECT_GT(rr.fault.retentionStamps, 0u);
}

TEST_F(FaultTest, DisabledFaultLayerStaysOutOfResults)
{
    sys::SystemConfig cfg = faultSystemConfig(
        sys::Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.fault = FaultConfig{};
    cfg.windowSeconds = 0.004;
    sys::System system(cfg);
    const sys::SimResults r = system.run();
    EXPECT_FALSE(r.fault.enabled);
    EXPECT_EQ(system.retentionTracker(), nullptr);
    const std::string json = r.toJsonString();
    EXPECT_EQ(json.find("\"fault\""), std::string::npos);
}

TEST_F(FaultTest, FaultStatsAreByteIdenticalAcrossWorkerCounts)
{
    const test::ScopedEnv epoch("SOURCE_DATE_EPOCH", "0");
    const fs::path base =
        fs::temp_directory_path() / "rrm_test_fault_det";
    fs::remove_all(base);

    const auto planFor = [&](const std::string &sub) {
        fs::create_directories(base / sub);
        run::RunPlan plan;
        for (const char *w : {"lbm", "libquantum"}) {
            for (const sys::Scheme &s :
                 {sys::Scheme::staticScheme(pcm::WriteMode::Sets3),
                  sys::Scheme::rrmScheme()}) {
                sys::SystemConfig cfg = faultSystemConfig(s);
                cfg.workload = trace::workloadFromName(w);
                cfg.windowSeconds = 0.006;
                const std::string id = std::string(w) + "." + s.name();
                cfg.obs.runRecordFile =
                    (base / sub / (id + ".json")).string();
                plan.add(std::move(cfg), id);
            }
        }
        return plan;
    };
    const auto slurp = [](const fs::path &path) {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        return ss.str();
    };

    run::RunnerOptions serial;
    serial.jobs = 1;
    const run::RunReport a =
        run::Runner(serial).execute(planFor("serial"));
    run::RunnerOptions parallel;
    parallel.jobs = 4;
    const run::RunReport b =
        run::Runner(parallel).execute(planFor("parallel"));

    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].results.fault.retentionViolations,
                  b.runs[i].results.fault.retentionViolations)
            << a.runs[i].id;
        const std::string serial_record =
            slurp(base / "serial" / (a.runs[i].id + ".json"));
        EXPECT_FALSE(serial_record.empty()) << a.runs[i].id;
        EXPECT_EQ(serial_record,
                  slurp(base / "parallel" / (a.runs[i].id + ".json")))
            << a.runs[i].id;
    }
    fs::remove_all(base);
}

} // namespace
} // namespace rrm::fault
