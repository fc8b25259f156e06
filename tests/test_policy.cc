/**
 * @file
 * Write-policy layer tests: the Scheme -> policy factory round-trip,
 * StaticPolicy/RrmPolicy interface behaviour, the RegionMonitor's
 * runtime hot-threshold actuator (invariant reconciliation), and the
 * AdaptiveRrmPolicy feedback law (pressure raises the threshold,
 * drains decay it back, low reuse raises the floor).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "policy/adaptive_rrm_policy.hh"
#include "policy/static_policy.hh"
#include "system/system.hh"

namespace rrm
{
namespace
{

monitor::RrmConfig
smallRrmConfig(unsigned hot_threshold = 4)
{
    monitor::RrmConfig cfg;
    cfg.numSets = 4;
    cfg.assoc = 2;
    cfg.hotThreshold = hot_threshold;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    return cfg;
}

// ---- Scheme -> policy factory ----

TEST(PolicyFactory, StaticSchemeMakesStaticPolicy)
{
    EventQueue queue;
    const policy::AdaptiveRrmConfig acfg;
    const policy::TenantQosConfig qcfg;
    const policy::TenantLayout layout;
    auto p = sys::Scheme::staticScheme(pcm::WriteMode::Sets5)
                 .makePolicy(smallRrmConfig(), acfg, qcfg, layout, queue);
    ASSERT_TRUE(p);
    EXPECT_NE(dynamic_cast<const policy::StaticPolicy *>(p.get()), nullptr);
    EXPECT_EQ(p->writeModeFor(0x1000), pcm::WriteMode::Sets5);
    EXPECT_EQ(p->accessLatency(), 0u);
    // "Fast writes" are a hybrid-scheme concept: static counts slow.
    EXPECT_FALSE(p->isFastMode(pcm::WriteMode::Sets3));
    EXPECT_EQ(p->monitor(), nullptr);
    EXPECT_EQ(p->preferredSampleInterval(), 0u);
}

TEST(PolicyFactory, RrmSchemeMakesRrmPolicy)
{
    EventQueue queue;
    const policy::AdaptiveRrmConfig acfg;
    const policy::TenantQosConfig qcfg;
    const policy::TenantLayout layout;
    const monitor::RrmConfig cfg = smallRrmConfig();
    auto p =
        sys::Scheme::rrmScheme().makePolicy(cfg, acfg, qcfg, layout,
                                            queue);
    ASSERT_TRUE(p);
    EXPECT_NE(dynamic_cast<const policy::RrmPolicy *>(p.get()), nullptr);
    EXPECT_EQ(dynamic_cast<const policy::AdaptiveRrmPolicy *>(p.get()),
              nullptr);
    ASSERT_NE(p->monitor(), nullptr);
    EXPECT_TRUE(p->isFastMode(cfg.fastMode));
    EXPECT_FALSE(p->isFastMode(cfg.slowMode));
    EXPECT_EQ(p->accessLatency(), cfg.accessLatency);
    EXPECT_EQ(p->preferredSampleInterval(), cfg.decayTickInterval());
}

TEST(PolicyFactory, AdaptiveSchemeMakesAdaptivePolicy)
{
    EventQueue queue;
    const policy::AdaptiveRrmConfig acfg;
    const policy::TenantQosConfig qcfg;
    const policy::TenantLayout layout;
    auto p = sys::Scheme::adaptiveRrmScheme().makePolicy(
        smallRrmConfig(), acfg, qcfg, layout, queue);
    ASSERT_TRUE(p);
    EXPECT_NE(dynamic_cast<const policy::AdaptiveRrmPolicy *>(p.get()),
              nullptr);
    EXPECT_NE(p->monitor(), nullptr);
}

TEST(PolicyFactory, EverySchemeBuildsAPolicy)
{
    const policy::AdaptiveRrmConfig acfg;
    const policy::TenantQosConfig qcfg;
    const policy::TenantLayout layout;
    for (const sys::Scheme &s : sys::allSchemes()) {
        EventQueue queue;
        auto p = s.makePolicy(smallRrmConfig(), acfg, qcfg, layout, queue);
        ASSERT_TRUE(p) << s.name();
        EXPECT_EQ(s.usesMonitor(), p->monitor() != nullptr) << s.name();
    }
}

TEST(PolicyFactory, RrmPolicyDelegatesDecisionsToMonitor)
{
    EventQueue queue;
    const monitor::RrmConfig cfg = smallRrmConfig();
    policy::RrmPolicy p(cfg, queue);
    // Cold block: slow mode. Hot + vector bit: fast mode.
    EXPECT_EQ(p.writeModeFor(0x1000), cfg.slowMode);
    for (unsigned i = 0; i < cfg.hotThreshold + 1; ++i)
        p.registerLlcWrite(0x1000, true);
    EXPECT_EQ(p.writeModeFor(0x1000), cfg.fastMode);
    EXPECT_TRUE(p.monitor()->isHot(0x1000));
}

// ---- RegionMonitor additions backing the adaptive policy ----

TEST(RegionMonitor, DecayEpochHookFiresOncePerDecayTick)
{
    EventQueue queue;
    monitor::RegionMonitor rrm(smallRrmConfig(), queue);
    unsigned fired = 0;
    rrm.setDecayEpochHook([&fired] { ++fired; });
    rrm.runDecayTick();
    rrm.runDecayTick();
    EXPECT_EQ(fired, 2u);
}

TEST(RegionMonitor, RegistrationCountersTrackLookupsAndHits)
{
    EventQueue queue;
    monitor::RegionMonitor rrm(smallRrmConfig(), queue);
    rrm.registerLlcWrite(0x1000, false); // clean: filtered, no lookup
    EXPECT_EQ(rrm.registrationLookups(), 0u);
    rrm.registerLlcWrite(0x1000, true); // miss -> allocate
    rrm.registerLlcWrite(0x1000, true); // hit
    EXPECT_EQ(rrm.registrationLookups(), 2u);
    EXPECT_EQ(rrm.registrationHits(), 1u);
}

TEST(SetHotThreshold, RaiseDemotesEntriesBelowHalfThreshold)
{
    EventQueue queue;
    const monitor::RrmConfig cfg = smallRrmConfig(4);
    monitor::RegionMonitor rrm(cfg, queue);
    std::vector<monitor::RefreshRequest> refreshes;
    rrm.setRefreshCallback([&](const monitor::RefreshRequest &r) {
        refreshes.push_back(r);
    });
    for (unsigned i = 0; i < 5; ++i) // promote + set one vector bit
        rrm.registerLlcWrite(0x1000, true);
    ASSERT_TRUE(rrm.isHot(0x1000));
    ASSERT_TRUE(rrm.shortRetentionBit(0x1000));

    rrm.setHotThreshold(16); // counter 4 < 16/2: must demote
    EXPECT_EQ(rrm.hotThreshold(), 16u);
    EXPECT_FALSE(rrm.isHot(0x1000));
    EXPECT_FALSE(rrm.shortRetentionBit(0x1000));
    // The demotion slow-refreshed the fast-written block.
    ASSERT_FALSE(refreshes.empty());
    EXPECT_EQ(refreshes.back().mode, cfg.slowMode);
    EXPECT_TRUE(refreshes.back().fromDecay);
    rrm.audit();
}

TEST(SetHotThreshold, LowerPromotesQualifyingEntries)
{
    EventQueue queue;
    monitor::RegionMonitor rrm(smallRrmConfig(16), queue);
    for (unsigned i = 0; i < 8; ++i)
        rrm.registerLlcWrite(0x1000, true);
    ASSERT_FALSE(rrm.isHot(0x1000));

    rrm.setHotThreshold(8); // counter 8 meets the new bar
    EXPECT_TRUE(rrm.isHot(0x1000));
    rrm.audit();
}

TEST(SetHotThreshold, ClampsCountersToNewThreshold)
{
    EventQueue queue;
    monitor::RegionMonitor rrm(smallRrmConfig(16), queue);
    for (unsigned i = 0; i < 8; ++i)
        rrm.registerLlcWrite(0x1000, true);

    rrm.setHotThreshold(6);
    EXPECT_EQ(rrm.dirtyWriteCounter(0x1000), 6u);
    EXPECT_TRUE(rrm.isHot(0x1000)); // clamped counter meets the bar
    rrm.audit();
}

// ---- Adaptive feedback law ----

struct AdaptiveFixture
{
    EventQueue queue;
    monitor::RrmConfig cfg = smallRrmConfig(4);
    double pressure = 0.0;
    std::unique_ptr<policy::AdaptiveRrmPolicy> pol;

    AdaptiveFixture()
        : pol(std::make_unique<policy::AdaptiveRrmPolicy>(cfg, queue))
    {
        pol->setPressureProbe([this] { return pressure; });
    }
};

TEST(AdaptivePolicy, PressureDoublesThresholdUpToCap)
{
    AdaptiveFixture f;
    f.pressure = 1.0;
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 8u);
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 16u); // cap: 4 * 4
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 16u);
}

TEST(AdaptivePolicy, DrainedQueuesDecayThresholdBackToBase)
{
    AdaptiveFixture f;
    f.pressure = 1.0;
    for (int i = 0; i < 2; ++i)
        f.pol->adaptNow();
    ASSERT_EQ(f.pol->currentHotThreshold(), 16u);

    f.pressure = 0.0;
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 8u);
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 4u); // back at base
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 4u);
}

TEST(AdaptivePolicy, MidbandPressureHoldsThreshold)
{
    AdaptiveFixture f;
    f.pressure = 0.3; // between pressureLow and pressureHigh
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 4u);
}

TEST(AdaptivePolicy, LowReuseRaisesTheFloor)
{
    AdaptiveFixture f;
    // Streaming phase: one dirty write per region, no hot reuse.
    for (unsigned r = 0; r < 8; ++r) {
        f.pol->registerLlcWrite(static_cast<Addr>(r) * f.cfg.regionBytes,
                                true);
    }
    f.pressure = 0.0;
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 8u); // floor: 2 * base
}

TEST(AdaptivePolicy, MatureHotSetRaisesThreshold)
{
    AdaptiveFixture f;
    // Ten dirty writes to one region: promoted at the 4th, so the
    // last six land in an already-hot region (hot reuse 0.6).
    for (unsigned i = 0; i < 10; ++i)
        f.pol->registerLlcWrite(0x1000, true);
    f.pressure = 0.0;
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 8u);
    // Hysteresis: a mid-band epoch (reuse between reuseDecay and
    // reuseHigh) must not unwind the raise.
    for (unsigned i = 0; i < 2; ++i)
        f.pol->registerLlcWrite(0x1000, true); // hot: reuse 1.0 > ...
    f.pol->registerLlcWrite(0x2000 + f.cfg.regionBytes * 100, true);
    f.pol->registerLlcWrite(0x2000 + f.cfg.regionBytes * 101, true);
    // Epoch: 2 hot hits, 2 cold misses -> reuse 0.5, in [0.30, 0.53).
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 8u);
}

TEST(AdaptivePolicy, ModerateReuseHoldsBaseThreshold)
{
    AdaptiveFixture f;
    // Region A: six writes (two land hot); four streamed regions.
    for (unsigned i = 0; i < 6; ++i)
        f.pol->registerLlcWrite(0x1000, true);
    for (unsigned r = 1; r < 5; ++r) {
        f.pol->registerLlcWrite(static_cast<Addr>(r) * f.cfg.regionBytes,
                                true);
    }
    // Hot reuse 2/10 = 0.2: above reuseLow, below reuseHigh.
    f.pressure = 0.0;
    f.pol->adaptNow();
    EXPECT_EQ(f.pol->currentHotThreshold(), 4u);
}

TEST(AdaptivePolicy, AdaptationKeepsMonitorInvariantsAuditable)
{
    AdaptiveFixture f;
    // Build mixed entry state: one hot region, several warm ones.
    for (unsigned i = 0; i < 5; ++i)
        f.pol->registerLlcWrite(0x1000, true);
    for (unsigned r = 1; r < 5; ++r) {
        for (unsigned i = 0; i < 2; ++i) {
            f.pol->registerLlcWrite(
                static_cast<Addr>(r) * f.cfg.regionBytes, true);
        }
    }
    f.pressure = 1.0;
    f.pol->adaptNow();
    f.pol->monitor()->audit();
    f.pressure = 0.0;
    f.pol->adaptNow();
    f.pol->monitor()->audit();
}

// ---- Adaptive-RRM end to end ----

TEST(AdaptivePolicy, RunsEndToEndThroughTheSystem)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("GemsFDTD");
    cfg.scheme = sys::parseScheme("Adaptive-RRM");
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.012;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    sys::System system(std::move(cfg));
    const sys::SimResults r = system.run();
    EXPECT_EQ(r.scheme, "Adaptive-RRM");
    EXPECT_GT(r.totalInstructions, 0u);
    EXPECT_GT(r.demandWrites, 0u);
    EXPECT_NE(system.statRoot().find("policy.hotThreshold"), nullptr);
    EXPECT_EQ(system.runAudits(), 0u);
}

} // namespace
} // namespace rrm
