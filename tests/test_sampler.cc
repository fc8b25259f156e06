/**
 * @file
 * Sampler behaviour: column registration, stat-path resolution,
 * CSV rendering, and — the part that matters for analysis —
 * alignment of periodic samples with the RRM decay epoch: a sample
 * scheduled on a decay tick must observe the post-decay state of
 * that tick (EventPriority::Sampler runs last within a tick).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "obs/sampler.hh"
#include "rrm/region_monitor.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"
#include "test_collecting_writer.hh"

using namespace rrm;
using namespace rrm::obs;

TEST(StatValue, ResolvesEveryStatKind)
{
    stats::StatGroup g("g");
    stats::Scalar &s = g.addScalar("s", "scalar");
    s += 2.5;
    stats::VectorStat &v = g.addVector("v", "vector", {"a", "b"});
    v.add(0, 1.0);
    v.add(1, 2.0);
    stats::Formula &f =
        g.addFormula("f", "formula", [] { return 7.0; });
    stats::DistributionStat &d =
        g.addDistribution("d", "dist", {10});
    d.add(5);
    d.add(15, 2);

    EXPECT_DOUBLE_EQ(statValue(&s), 2.5);
    EXPECT_DOUBLE_EQ(statValue(&v), 3.0); // vector total
    EXPECT_DOUBLE_EQ(statValue(&f), 7.0);
    EXPECT_DOUBLE_EQ(statValue(&d), 2.0); // add() calls
    EXPECT_DOUBLE_EQ(statValue(nullptr), 0.0);
}

TEST(Sampler, RejectsZeroInterval)
{
    EventQueue queue;
    EXPECT_THROW(Sampler(queue, 0), check::CheckError);
}

TEST(Sampler, SamplesColumnsAtEveryInterval)
{
    EventQueue queue;
    Sampler sampler(queue, 100);
    double level = 0.0;
    sampler.addColumn("level", [&] { return level; });
    sampler.start();

    // The sampled value tracks the state at each sample tick.
    queue.schedule(50, [&] { level = 1.0; });
    queue.schedule(250, [&] { level = 2.0; });
    queue.run(400);

    ASSERT_EQ(sampler.rows().size(), 4u);
    EXPECT_EQ(sampler.rows()[0].tick, 100u);
    EXPECT_EQ(sampler.rows()[3].tick, 400u);
    EXPECT_DOUBLE_EQ(sampler.rows()[0].values[0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[1].values[0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[2].values[0], 2.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[3].values[0], 2.0);
}

TEST(Sampler, StopCancelsFutureSamplesButKeepsRows)
{
    EventQueue queue;
    Sampler sampler(queue, 100);
    sampler.addColumn("one", [] { return 1.0; });
    sampler.start();
    queue.run(200);
    EXPECT_EQ(sampler.rows().size(), 2u);
    sampler.stop();
    queue.run(500);
    EXPECT_EQ(sampler.rows().size(), 2u);
}

TEST(Sampler, ColumnsMustBeRegisteredBeforeSampling)
{
    EventQueue queue;
    Sampler sampler(queue, 100);
    sampler.addColumn("a", [] { return 0.0; });
    sampler.sampleNow();
    EXPECT_THROW(sampler.addColumn("b", [] { return 0.0; }),
                 check::CheckError);
}

TEST(Sampler, StatColumnsResolveLazilyEachSample)
{
    EventQueue queue;
    Sampler sampler(queue, 100);
    stats::StatGroup root("system");
    // Registered before the stat exists: find() resolves per sample.
    sampler.addStat(root, "mem.reads");
    sampler.sampleNow();

    stats::Scalar &reads =
        root.addChild("mem").addScalar("reads", "r");
    reads += 42;
    sampler.sampleNow();

    ASSERT_EQ(sampler.rows().size(), 2u);
    EXPECT_DOUBLE_EQ(sampler.rows()[0].values[0], 0.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[1].values[0], 42.0);
    EXPECT_EQ(sampler.columnNames()[0], "mem.reads");
}

TEST(Sampler, CsvFormat)
{
    EventQueue queue;
    Sampler sampler(queue, 100);
    sampler.addColumn("hot", [] { return 3.0; });
    sampler.addColumn("frac", [] { return 0.5; });
    queue.schedule(secondsToTicks(0.5), [] {});
    queue.run();
    sampler.sampleNow(); // one row at t = 0.5 s

    std::ostringstream csv;
    sampler.writeCsv(csv);
    EXPECT_EQ(csv.str(), "time_s,hot,frac\n0.5,3,0.5\n");
}

TEST(Sampler, RestoreBoundsTheRowCountByThePayload)
{
    EventQueue queue;
    Sampler sampler(queue, 100);
    sampler.addColumn("a", [] { return 0.0; });
    sampler.addColumn("b", [] { return 0.0; });
    ckpt::ChunkWriter w;
    w.u64(100); // interval
    w.u64(2);   // columns
    w.u64(std::uint64_t{1} << 40); // rows claimed...
    w.u64(100); // ...but one present
    w.f64(1.0);
    w.f64(2.0);
    w.b(false);
    ckpt::ChunkReader r(w.data().data(), w.size(), "SMPL");
    EXPECT_THROW(sampler.restoreCkpt(r), ckpt::CkptError);
}

TEST(Sampler, ReportsEachSampleToTheTraceSink)
{
    EventQueue queue;
    Sampler sampler(queue, 100);
    sampler.addColumn("x", [] { return 1.0; });
    std::vector<TraceEvent> seen;
    TraceSink sink(std::make_unique<test::CollectingWriter>(seen));
    sampler.setTraceSink(&sink);
    sampler.sampleNow();
    sampler.sampleNow();
    ASSERT_EQ(sink.recorded(), 2u);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].category, TraceCategory::Sampler);
}

/**
 * Samples aligned with the RRM decay epoch observe post-decay state.
 *
 * With hot_threshold 2 at native time scale the decay tick is the
 * paper's 0.125 s. A region promoted by two dirty writes stays hot
 * through the first decay wrap (counter halved 2 -> 1) and is demoted
 * exactly at the second wrap, i.e. on decay tick 32. The sampler runs
 * at the same period, so its 32nd row lands on the same tick as the
 * demotion — and because samples run at EventPriority::Sampler (after
 * the decay tick's RefreshInterrupt priority), that row must already
 * see zero hot entries.
 */
TEST(Sampler, DecayEpochSamplesObservePostDecayState)
{
    monitor::RrmConfig cfg;
    cfg.hotThreshold = 2;
    const Tick decay = cfg.decayTickInterval();
    EXPECT_EQ(decay, secondsToTicks(0.125));

    EventQueue queue;
    monitor::RegionMonitor rrm(cfg, queue);
    Sampler sampler(queue, decay);
    sampler.addColumn("hotEntries",
                      [&] { return double(rrm.hotEntryCount()); });

    rrm.registerLlcWrite(0x1000, true);
    rrm.registerLlcWrite(0x1000, true);
    ASSERT_EQ(rrm.hotEntryCount(), 1u);

    rrm.start();
    sampler.start();
    queue.run(32 * decay);

    ASSERT_EQ(sampler.rows().size(), 32u);
    // Hot through the first wrap (row 16) and up to the last tick
    // before the second wrap...
    EXPECT_DOUBLE_EQ(sampler.rows()[15].values[0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[30].values[0], 1.0);
    // ...and the row sharing a tick with the demoting decay wrap
    // already reflects the demotion.
    EXPECT_EQ(sampler.rows()[31].tick, 32 * decay);
    EXPECT_DOUBLE_EQ(sampler.rows()[31].values[0], 0.0);
    EXPECT_EQ(rrm.hotEntryCount(), 0u);
}
