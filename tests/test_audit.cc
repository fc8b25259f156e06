/**
 * @file
 * Deep-audit tests: healthy components must pass their audit() with
 * zero violations, and deliberately corrupted state (seeded through
 * the test-only backdoors) must be caught. If an invariant check is
 * removed from an audit implementation, the corruption test for it
 * fails loudly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "common/auditable.hh"
#include "common/random.hh"
#include "rrm/region_monitor.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"

namespace rrm
{
namespace
{

using check::FailurePolicy;
using check::ScopedFailurePolicy;

/** Audits run under LogAndCount so runAudit() can report a count. */
class AuditTest : public ::testing::Test
{
  protected:
    void SetUp() override { check::resetViolations(); }
    void TearDown() override { check::resetViolations(); }
};

// ---------------------------------------------------------------------
// RegionMonitor
// ---------------------------------------------------------------------

monitor::RrmConfig
smallRrmConfig()
{
    monitor::RrmConfig cfg;
    cfg.numSets = 4;
    cfg.assoc = 2;
    cfg.hotThreshold = 4;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    return cfg;
}

struct RrmFixture
{
    EventQueue queue;
    monitor::RrmConfig cfg;
    monitor::RegionMonitor rrm;

    RrmFixture() : cfg(smallRrmConfig()), rrm(cfg, queue)
    {
        rrm.setRefreshCallback([](const monitor::RefreshRequest &) {});
    }

    void
    dirtyWrites(Addr addr, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            rrm.registerLlcWrite(addr, true);
    }
};

TEST_F(AuditTest, HealthyRegionMonitorPassesAudit)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    EXPECT_EQ(runAudit(f.rrm), 0u);

    // Populate: cold entries, a hot entry with vector bits, decay.
    f.dirtyWrites(0x1000, 1);
    f.dirtyWrites(0x5000, f.cfg.hotThreshold + 3);
    f.dirtyWrites(0x5040, 2);
    f.rrm.runDecayTick();
    ASSERT_TRUE(f.rrm.isHot(0x5000));
    EXPECT_EQ(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, AuditCatchesCorruptDirtyWriteCounter)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    f.dirtyWrites(0x1000, 2);
    monitor::RegionMonitorTestAccess::corruptDirtyWriteCounter(
        f.rrm, 0x1000, f.cfg.hotThreshold + 5);
    EXPECT_GT(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, AuditCatchesCorruptHotFlag)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    // Hot with a dirty-write counter far below promotion level.
    f.dirtyWrites(0x1000, 1);
    monitor::RegionMonitorTestAccess::corruptHotFlag(f.rrm, 0x1000,
                                                     true);
    EXPECT_GT(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, AuditCatchesVectorBitOnColdEntry)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    f.dirtyWrites(0x1000, 1);
    ASSERT_FALSE(f.rrm.isHot(0x1000));
    monitor::RegionMonitorTestAccess::corruptVectorBit(f.rrm, 0x1040);
    EXPECT_GT(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, AuditCatchesLruStampBeyondClock)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    f.dirtyWrites(0x1000, 1);
    // A stamp the LRU clock has never handed out.
    monitor::RegionMonitorTestAccess::corruptLruStamp(
        f.rrm, 0x1000, std::uint64_t(1) << 40);
    EXPECT_GT(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, AuditCatchesCorruptDecayCounter)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    f.dirtyWrites(0x1000, 1);
    monitor::RegionMonitorTestAccess::corruptDecayCounter(
        f.rrm, 0x1000, f.cfg.decayTicksPerInterval + 1);
    EXPECT_GT(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, AuditCatchesDuplicateLruStamps)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    // Two regions in the same set (4 KB regions, 4 sets: region ids
    // 1 and 5 both index set 1).
    f.dirtyWrites(0x1000, 1);
    f.dirtyWrites(0x5000, 1);
    monitor::RegionMonitorTestAccess::corruptLruStamp(f.rrm, 0x1000, 1);
    monitor::RegionMonitorTestAccess::corruptLruStamp(f.rrm, 0x5000, 1);
    EXPECT_GT(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, AuditCatchesEntryInWrongSet)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RrmFixture f;
    f.dirtyWrites(0x1000, 1);
    // Region id 2 indexes set 2, but the entry lives in set 1.
    monitor::RegionMonitorTestAccess::corruptRegionId(f.rrm, 0x1000, 2);
    EXPECT_GT(runAudit(f.rrm), 0u);
}

TEST_F(AuditTest, RegionMonitorCorruptionThrowsUnderThrowPolicy)
{
    ScopedFailurePolicy policy(FailurePolicy::Throw);
    RrmFixture f;
    f.dirtyWrites(0x1000, 1);
    monitor::RegionMonitorTestAccess::corruptHotFlag(f.rrm, 0x1000,
                                                     true);
    EXPECT_THROW(f.rrm.audit(), check::CheckError);
}

// ---------------------------------------------------------------------
// Event queue, wear tracker, cache hierarchy
// ---------------------------------------------------------------------

TEST_F(AuditTest, EventQueuePassesAuditWhilePendingAndAfterRun)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 32; ++i)
        q.schedule(Tick(100 + 13 * i), [&fired] { ++fired; });
    EXPECT_EQ(runAudit(q), 0u);
    q.run(Tick(250));
    EXPECT_EQ(runAudit(q), 0u);
    q.run();
    EXPECT_EQ(fired, 32);
    EXPECT_EQ(runAudit(q), 0u);
}

TEST_F(AuditTest, EventQueueRunHonoursEventCap)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        q.schedule(Tick(10 * (i + 1)), [&fired] { ++fired; });
    // A capped run stops mid-way and must not fast-forward time.
    EXPECT_EQ(q.run(Tick(1000), 3), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), Tick(30));
    EXPECT_EQ(q.run(Tick(1000)), 7u);
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(q.now(), Tick(1000));
}

TEST_F(AuditTest, CacheHierarchyPassesAuditUnderRandomTraffic)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    cache::HierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.l1.name = "l1";
    cfg.l1.sizeBytes = 512;
    cfg.l1.assoc = 4;
    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = 1024;
    cfg.l2.assoc = 4;
    cfg.llc.name = "llc";
    cfg.llc.sizeBytes = 4096;
    cfg.llc.assoc = 4;
    cache::CacheHierarchy h(cfg);
    Random rng(1234);
    for (int i = 0; i < 10000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.uniform(2));
        const Addr addr = rng.uniform(512) * 64;
        const bool is_write = rng.chance(0.4);
        if (h.access(core, addr, is_write).llcMiss)
            h.fill(core, addr, is_write);
        if (i % 500 == 0) {
            ASSERT_EQ(runAudit(h), 0u) << "iteration " << i;
        }
    }
    EXPECT_EQ(runAudit(h), 0u);
}

// ---------------------------------------------------------------------
// Whole-system periodic audits
// ---------------------------------------------------------------------

sys::SystemConfig
auditedConfig(std::uint64_t audit_every)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("GemsFDTD");
    cfg.scheme = sys::Scheme::rrmScheme();
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.004;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    cfg.auditEveryEvents = audit_every;
    return cfg;
}

TEST_F(AuditTest, SystemRunsCleanWithAggressiveAuditCadence)
{
    // Throw policy: any invariant violation fails this test.
    ScopedFailurePolicy policy(FailurePolicy::Throw);
    sys::System system(auditedConfig(200));
    const sys::SimResults r = system.run();
    EXPECT_GT(r.totalInstructions, 0u);
    EXPECT_EQ(system.runAudits(), 0u);
}

TEST_F(AuditTest, PeriodicAuditsDoNotPerturbTheSimulation)
{
    ScopedFailurePolicy policy(FailurePolicy::Throw);
    sys::System audited(auditedConfig(500));
    sys::System plain(auditedConfig(0));
    const sys::SimResults a = audited.run();
    const sys::SimResults b = plain.run();
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.demandWrites, b.demandWrites);
    EXPECT_DOUBLE_EQ(a.aggregateIpc, b.aggregateIpc);
}

} // namespace
} // namespace rrm
