/**
 * @file
 * Multi-tenant QoS layer tests (DESIGN.md section 17): the
 * TenantLayout address mapping, the TenantQosPolicy boost allotment
 * (filter bypass inside the quota, filtered path past it, epoch
 * rollover, noisy detection), the fairness metrics, whole-system
 * multi-tenant runs, and checkpoint resume byte-identity under
 * RRM-QoS.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "policy/rrm_policy.hh"
#include "policy/tenant_qos_policy.hh"
#include "system/fairness.hh"
#include "system/system.hh"
#include "test_scoped_env.hh"
#include "test_temp_dir.hh"

namespace rrm::sys
{
namespace
{

namespace fs = std::filesystem;
using test::TempDir;

// ---- TenantLayout ----

TEST(TenantLayout, DefaultLayoutMapsEverythingToTenantZero)
{
    const policy::TenantLayout layout;
    EXPECT_EQ(layout.numTenants(), 1u);
    EXPECT_EQ(layout.tenantOfAddr(0), 0u);
    EXPECT_EQ(layout.tenantOfAddr(0xdeadbeef), 0u);
    EXPECT_EQ(layout.coresPerTenant(), (std::vector<unsigned>{1}));
}

TEST(TenantLayout, AddressSlicesFollowTheCoreOwnership)
{
    policy::TenantLayout layout;
    layout.tenantOf = {0, 0, 1, 1};
    layout.coreSliceBytes = 1u << 20;
    EXPECT_EQ(layout.numTenants(), 2u);
    EXPECT_EQ(layout.coresPerTenant(),
              (std::vector<unsigned>{2, 2}));
    EXPECT_EQ(layout.tenantOfAddr(0), 0u);
    EXPECT_EQ(layout.tenantOfAddr((1u << 20) - 1), 0u);
    EXPECT_EQ(layout.tenantOfAddr(1u << 21), 1u);
    EXPECT_EQ(layout.tenantOfAddr(3u << 20), 1u);
    // Beyond the last slice clamps to the last core's tenant.
    EXPECT_EQ(layout.tenantOfAddr(1ull << 40), 1u);
}

// ---- TenantQosPolicy ----

/**
 * A structure sized so that its base budget, numSets * assoc *
 * hotThreshold / decayTicksPerInterval = 32 * 2 * 4 / 16, is 16
 * boosted registrations per epoch: 8 per tenant on a 1:1 layout.
 */
monitor::RrmConfig
smallRrmConfig()
{
    monitor::RrmConfig cfg;
    cfg.numSets = 32;
    cfg.assoc = 2;
    cfg.hotThreshold = 4;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    return cfg;
}

policy::TenantLayout
twoTenantLayout()
{
    policy::TenantLayout layout;
    layout.tenantOf = {0, 1};
    layout.coreSliceBytes = 1u << 20;
    return layout;
}

std::unique_ptr<policy::TenantQosPolicy>
makeQosPolicy(EventQueue &queue, const policy::TenantLayout &layout)
{
    auto inner =
        std::make_unique<policy::RrmPolicy>(smallRrmConfig(), queue);
    return std::make_unique<policy::TenantQosPolicy>(std::move(inner),
                                                     layout, queue);
}

TEST(TenantQosPolicy, QuotaSplitsTheEpochBudgetByCoreShare)
{
    // The base budget of 16 per epoch, split 3:1 across a 4-core
    // layout.
    EventQueue queue;
    policy::TenantLayout layout;
    layout.tenantOf = {0, 0, 0, 1};
    layout.coreSliceBytes = 1u << 20;
    auto p = makeQosPolicy(queue, layout);
    EXPECT_NE(p->monitor(), nullptr);
    EXPECT_EQ(p->tenantQuota(0), 12u);
    EXPECT_EQ(p->tenantQuota(1), 4u);
}

TEST(TenantQosPolicy, BoostedRegistrationsBypassTheStreamingFilter)
{
    // Clean (was_dirty = false) writes normally never promote under
    // the dirty-write filter; inside the allotment they must.
    EventQueue queue;
    auto p = makeQosPolicy(queue, twoTenantLayout()); // quota 8 each
    const monitor::RrmConfig cfg = smallRrmConfig();

    const Addr hot = 0x1000; // tenant 0
    EXPECT_EQ(p->writeModeFor(hot), cfg.slowMode);
    for (int i = 0; i < 6; ++i)
        p->registerLlcWrite(hot, /*was_dirty=*/false);
    EXPECT_EQ(p->writeModeFor(hot), cfg.fastMode);
    EXPECT_EQ(p->tenantBoosted(0), 6u);
    EXPECT_EQ(p->tenantBoosted(1), 0u);
}

TEST(TenantQosPolicy, PastTheAllotmentTheFilterApplies)
{
    EventQueue queue;
    auto p = makeQosPolicy(queue, twoTenantLayout()); // quota 8 each
    const monitor::RrmConfig cfg = smallRrmConfig();

    // Exhaust tenant 0's allotment on one region...
    const Addr junk = 0x0;
    for (std::uint64_t i = 0; i < p->tenantQuota(0); ++i)
        p->registerLlcWrite(junk, /*was_dirty=*/false);
    EXPECT_EQ(p->tenantBoosted(0), p->tenantQuota(0));

    // ...then clean writes to another region are filtered out and
    // never promote it, no matter how many arrive.
    const Addr cold = 0x80000; // still tenant 0
    for (int i = 0; i < 8; ++i)
        p->registerLlcWrite(cold, /*was_dirty=*/false);
    EXPECT_EQ(p->writeModeFor(cold), cfg.slowMode);
    EXPECT_EQ(p->tenantBoosted(0), p->tenantQuota(0));
}

TEST(TenantQosPolicy, EpochRolloverRefillsTheAllotment)
{
    EventQueue queue;
    auto p = makeQosPolicy(queue, twoTenantLayout());

    const std::uint64_t quota = p->tenantQuota(0);
    for (std::uint64_t i = 0; i < quota + 4; ++i)
        p->registerLlcWrite(0x0, /*was_dirty=*/false);
    EXPECT_EQ(p->tenantBoosted(0), quota);

    p->rolloverNow();
    p->registerLlcWrite(0x0, /*was_dirty=*/false);
    EXPECT_EQ(p->tenantBoosted(0), quota + 1);
}

TEST(TenantQosPolicy, NoisyDetectionIsPerTenantAndPerEpoch)
{
    EventQueue queue;
    auto p = makeQosPolicy(queue, twoTenantLayout());

    // Tenant 0 storms past noisyFactor (2) x its quota; tenant 1 stays modest.
    const std::uint64_t storm = 2 * p->tenantQuota(0) + 1;
    for (std::uint64_t i = 0; i < storm; ++i)
        p->registerLlcWrite(0x0, /*was_dirty=*/true);
    p->registerLlcWrite(1u << 20, /*was_dirty=*/true);

    EXPECT_FALSE(p->tenantNoisy(0)); // flags apply to the NEXT epoch
    p->rolloverNow();
    EXPECT_TRUE(p->tenantNoisy(0));
    EXPECT_FALSE(p->tenantNoisy(1));

    // A quiet epoch clears the flag again.
    p->rolloverNow();
    EXPECT_FALSE(p->tenantNoisy(0));
}

TEST(TenantQosPolicy, DefaultNoisyHandlingKeepsWritesFlowing)
{
    // The noisy flag only reports: a noisy tenant keeps its write
    // modes and its registrations (slow writes would hold the shared
    // banks longer, hurting exactly the tenants QoS protects).
    EventQueue queue;
    auto p = makeQosPolicy(queue, twoTenantLayout());
    const monitor::RrmConfig cfg = smallRrmConfig();

    const Addr hot = 0x1000;
    for (int i = 0; i < 6; ++i)
        p->registerLlcWrite(hot, /*was_dirty=*/false);
    ASSERT_EQ(p->writeModeFor(hot), cfg.fastMode);

    for (std::uint64_t i = 0; i < 3 * p->tenantQuota(0); ++i)
        p->registerLlcWrite(0x0, /*was_dirty=*/true);
    p->rolloverNow();
    ASSERT_TRUE(p->tenantNoisy(0));
    EXPECT_EQ(p->writeModeFor(hot), cfg.fastMode);
}

// ---- Fairness metrics ----

TEST(Fairness, FormulasMatchTheHandComputedValues)
{
    const FairnessReport r = computeFairness(
        /*mixed*/ {1.0, 0.5}, /*tenants*/ {0, 1}, /*solo*/ {2.0, 2.0});
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_DOUBLE_EQ(r.tenants[0].slowdown, 2.0);
    EXPECT_DOUBLE_EQ(r.tenants[1].slowdown, 4.0);
    EXPECT_DOUBLE_EQ(r.tenants[0].weightedSpeedup, 0.5);
    EXPECT_DOUBLE_EQ(r.tenants[1].weightedSpeedup, 0.25);
    EXPECT_DOUBLE_EQ(r.weightedSpeedup, 0.75);
    EXPECT_DOUBLE_EQ(r.unfairness, 2.0);
}

TEST(Fairness, TenantSlowdownAveragesItsCores)
{
    const FairnessReport r =
        computeFairness({1.0, 0.5, 2.0}, {0, 0, 1}, {2.0, 2.0, 2.0});
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].cores, (std::vector<unsigned>{0, 1}));
    EXPECT_DOUBLE_EQ(r.tenants[0].slowdown, 3.0); // mean of 2 and 4
    EXPECT_DOUBLE_EQ(r.tenants[1].slowdown, 1.0);
    EXPECT_DOUBLE_EQ(r.unfairness, 3.0);
}

TEST(Fairness, ZeroIpcCoresAreSkippedNotPoisonous)
{
    const FairnessReport r =
        computeFairness({1.0, 0.5}, {0, 1}, {2.0, 0.0});
    EXPECT_DOUBLE_EQ(r.weightedSpeedup, 0.5);
    EXPECT_DOUBLE_EQ(r.tenants[1].slowdown, 0.0);
}

TEST(Fairness, EmptyTenantMapMeansOneTenant)
{
    const FairnessReport r = computeFairness({1.0, 1.0}, {}, {2.0, 2.0});
    ASSERT_EQ(r.tenants.size(), 1u);
    EXPECT_EQ(r.tenants[0].cores, (std::vector<unsigned>{0, 1}));
    EXPECT_DOUBLE_EQ(r.unfairness, 1.0);
}

// ---- Whole-system multi-tenant runs ----

SystemConfig
tenantQuickConfig(const Scheme &scheme)
{
    SystemConfig cfg;
    cfg.workload =
        trace::workloadFromSpec("lbm:2,GemsFDTD:2", "0,0,1,1");
    cfg.scheme = scheme;
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.012;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    return cfg;
}

TEST(TenantSystem, MultiTenantRunPopulatesPerTenantResults)
{
    System system(tenantQuickConfig(Scheme::rrmQosScheme()));
    const SimResults r = system.run();
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].cores, (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(r.tenants[1].cores, (std::vector<unsigned>{2, 3}));

    std::uint64_t instructions = 0;
    double ipc = 0.0;
    for (const auto &t : r.tenants) {
        EXPECT_GT(t.instructions, 0u) << "tenant " << t.tenant;
        EXPECT_GT(t.ipc, 0.0) << "tenant " << t.tenant;
        instructions += t.instructions;
        ipc += t.ipc;
    }
    EXPECT_EQ(instructions, r.totalInstructions);
    double core_ipc = 0.0;
    for (const double v : r.ipcPerCore)
        core_ipc += v;
    EXPECT_NEAR(ipc, core_ipc, 1e-9);
}

TEST(TenantSystem, SingleTenantRunsKeepTheTenantSectionEmpty)
{
    SystemConfig cfg = tenantQuickConfig(Scheme::rrmScheme());
    cfg.workload = trace::workloadFromName("lbm");
    System system(std::move(cfg));
    const SimResults r = system.run();
    EXPECT_TRUE(r.tenants.empty());
}

TEST(TenantSystem, MultiTenantRunsAreDeterministic)
{
    System a(tenantQuickConfig(Scheme::rrmQosScheme()));
    System b(tenantQuickConfig(Scheme::rrmQosScheme()));
    const SimResults ra = a.run();
    const SimResults rb = b.run();
    ASSERT_EQ(ra.tenants.size(), rb.tenants.size());
    for (std::size_t t = 0; t < ra.tenants.size(); ++t) {
        EXPECT_EQ(ra.tenants[t].instructions,
                  rb.tenants[t].instructions);
        EXPECT_EQ(ra.tenants[t].fastWrites, rb.tenants[t].fastWrites);
    }
}

TEST(TenantSystem, ValidationRejectsBadTenantGrouping)
{
    SystemConfig cfg = tenantQuickConfig(Scheme::rrmQosScheme());
    cfg.workload.tenantOf = {0, 0, 1}; // 3 ids, 4 cores
    const std::vector<std::string> errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("3"), std::string::npos);
    EXPECT_NE(errors[0].find("4"), std::string::npos);
}

// ---- Checkpoint resume byte-identity under RRM-QoS ----

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(TenantCkpt, ResumeUnderRrmQosIsByteIdentical)
{
    const test::ScopedEnv epoch("SOURCE_DATE_EPOCH", "1700000000");
    const TempDir ref_dir("tenant_qos_ref");
    SystemConfig cfg = tenantQuickConfig(Scheme::rrmQosScheme());
    cfg.windowSeconds = 0.024;
    cfg.checkpointEveryEpochs = 1;
    cfg.checkpointDir = ref_dir.string();
    cfg.obs.runRecordFile = (ref_dir / "rec.json").string();

    SystemConfig ref_cfg = cfg;
    System reference(std::move(ref_cfg));
    reference.run();
    const std::string ref_record = slurp(ref_dir / "rec.json");

    std::size_t ckpts = 0;
    for (const auto &entry : fs::directory_iterator(ref_dir)) {
        if (entry.path().extension() == ".rckpt")
            ++ckpts;
    }
    ASSERT_GE(ckpts, 2u)
        << "window too short to publish mid-run checkpoints";

    SystemConfig resume_cfg = cfg;
    resume_cfg.obs.runRecordFile = (ref_dir / "rec_resume.json").string();
    resume_cfg.resumeFromCheckpoint = true;
    System resumed(std::move(resume_cfg));
    resumed.run();
    EXPECT_GT(resumed.resumedFromEpoch(), 0u)
        << "resume fell back to a cold start";
    EXPECT_EQ(slurp(ref_dir / "rec_resume.json"), ref_record)
        << "multi-tenant resume diverged from the reference run";
}

TEST(TenantCkpt, TenantGroupingIsPartOfTheFingerprint)
{
    const test::ScopedEnv epoch("SOURCE_DATE_EPOCH", "1700000000");
    const TempDir ref_dir("tenant_qos_fp");
    SystemConfig cfg = tenantQuickConfig(Scheme::rrmQosScheme());
    cfg.checkpointEveryEpochs = 1;
    cfg.checkpointDir = ref_dir.string();
    cfg.obs.runRecordFile = (ref_dir / "rec.json").string();

    SystemConfig ref_cfg = cfg;
    System reference(std::move(ref_cfg));
    reference.run();

    // Same mix, different tenant grouping: a different run. The
    // resume must refuse the foreign checkpoints and start cold.
    SystemConfig other = cfg;
    other.workload =
        trace::workloadFromSpec("lbm:2,GemsFDTD:2", "0,1,1,1");
    other.obs.runRecordFile = (ref_dir / "rec_other.json").string();
    other.resumeFromCheckpoint = true;
    System resumed(std::move(other));
    resumed.run();
    EXPECT_EQ(resumed.resumedFromEpoch(), 0u);
}

} // namespace
} // namespace rrm::sys
