/**
 * @file
 * Pins the model's fixed values (DESIGN.md section 3): each is a
 * compile-time constant that no caller can assign, with the value the
 * paper's tables or the fitted models give it. The types that hold
 * them stay, so a read through an instance, as SystemConfig's users
 * make it, still compiles. Most checks are static_asserts: a value
 * that turns back into a settable field, or changes, breaks the build
 * of this file.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "fault/retention_tracker.hh"
#include "pcm/drift_model.hh"
#include "pcm/energy_model.hh"
#include "pcm/lifetime_model.hh"
#include "system/system.hh"

namespace rrm
{
namespace
{

using cpu::CoreParams;
using memctrl::MemoryParams;
using monitor::RrmConfig;
using pcm::WriteMode;
using policy::AdaptiveRrmConfig;
using policy::TenantQosConfig;

/*
 * Pin a member constant: a concept that holds when `c.member = value`
 * compiles for an instance c (as it did while the member was a
 * settable field) must not hold for Type, and Type::member must equal
 * value. The concept is named after the member, so each member name
 * is pinned once.
 */
#define PIN_MEMBER(Type, member, value)                                   \
    template <typename T>                                                 \
    concept assignable_##member = requires(T c) { c.member = value; };    \
    static_assert(!assignable_##member<Type>,                             \
                  #Type "::" #member " can be assigned");                 \
    static_assert(Type::member == (value), #Type "::" #member " changed")

/* Pin a namespace-scope constant: const, with the given value. */
#define PIN_CONSTANT(name, value)                                         \
    static_assert(std::is_const_v<decltype(name)>,                        \
                  #name " is not a constant");                            \
    static_assert(name == (value), #name " changed")

// Paper Table IV/V machine.
PIN_MEMBER(MemoryParams, memoryBytes, 8_GiB);
PIN_MEMBER(MemoryParams, banksPerChannel, 16u);
PIN_MEMBER(MemoryParams, busCycle, 2500_ps);
PIN_MEMBER(MemoryParams, busWidthBytes, 8u);
PIN_MEMBER(MemoryParams, rowBufferBytes, 1_KiB);
PIN_MEMBER(MemoryParams, tRCD, 120_ns);
PIN_MEMBER(MemoryParams, tCAS, 2500_ps);
PIN_MEMBER(MemoryParams, tFAW, 50_ns);
PIN_MEMBER(CoreParams, cycle, 500_ps);
PIN_MEMBER(CoreParams, width, 8u);
PIN_MEMBER(CoreParams, quantum, 200_ns);
PIN_MEMBER(CoreParams, l2HitPenalty, Cycles{3});
PIN_MEMBER(CoreParams, llcHitPenalty, Cycles{12});
PIN_MEMBER(RrmConfig, accessLatency, 2_ns);
PIN_MEMBER(RrmConfig, fastMode, WriteMode::Sets3);
PIN_MEMBER(RrmConfig, slowMode, WriteMode::Sets7);
PIN_MEMBER(RrmConfig, guardSeconds, 0.01);
PIN_MEMBER(RrmConfig, decayTicksPerInterval, 16u);

// Endurance, energy and the retention check's bound.
PIN_CONSTANT(pcm::endurance, 5.0e6);
PIN_CONSTANT(pcm::levelingEfficiency, 0.95);
PIN_CONSTANT(pcm::writeVoltage, 1.8);
PIN_CONSTANT(pcm::bitsPerCell, 2u);
PIN_CONSTANT(pcm::readEnergyPerBlock, 5.0e-9);
PIN_CONSTANT(fault::trackRetentionMaxSeconds, 3.0);

// The analytic drift model behind Table I.
PIN_CONSTANT(pcm::drift::alpha, 0.1);
PIN_CONSTANT(pcm::drift::levelSeparation, 0.5);
PIN_CONSTANT(pcm::drift::bandWidth0, 0.6954);
PIN_CONSTANT(pcm::drift::bandWidthStep, 0.0798);
PIN_CONSTANT(pcm::drift::t0Seconds, 1.0);

// Adaptive-RRM's feedback law.
PIN_MEMBER(AdaptiveRrmConfig, pressureHigh, 0.5);
PIN_MEMBER(AdaptiveRrmConfig, pressureLow, 0.125);
PIN_MEMBER(AdaptiveRrmConfig, reuseHigh, 0.53);
PIN_MEMBER(AdaptiveRrmConfig, reuseDecay, 0.30);
PIN_MEMBER(AdaptiveRrmConfig, reuseLow, 0.12);
PIN_MEMBER(AdaptiveRrmConfig, maxThresholdMultiple, 4u);

// RRM-QoS's quota decorator.
PIN_MEMBER(TenantQosConfig, budgetFactor, 1.0);
PIN_MEMBER(TenantQosConfig, noisyFactor, 2.0);

#undef PIN_MEMBER
#undef PIN_CONSTANT

// The concepts do hold for a settable field, so a false one above
// means "not assignable", not "misspelt".
struct SettableLaw
{
    double pressureHigh = 0.5;
    unsigned maxThresholdMultiple = 4;
};
static_assert(assignable_pressureHigh<SettableLaw>);
static_assert(assignable_maxThresholdMultiple<SettableLaw>);

TEST(FixedConstants, ReadThroughASystemConfig)
{
    const sys::SystemConfig cfg;

    EXPECT_EQ(cfg.memory.memoryBytes, 8_GiB);
    EXPECT_EQ(cfg.memory.banksPerChannel, 16u);
    EXPECT_EQ(cfg.memory.busCycle, 2500_ps);
    EXPECT_EQ(cfg.memory.busWidthBytes, 8u);
    EXPECT_EQ(cfg.memory.rowBufferBytes, 1_KiB);
    EXPECT_EQ(cfg.memory.tRCD, 120_ns);
    EXPECT_EQ(cfg.memory.tCAS, 2500_ps);
    EXPECT_EQ(cfg.memory.tFAW, 50_ns);

    EXPECT_EQ(cfg.core.cycle, 500_ps);
    EXPECT_EQ(cfg.core.width, 8u);
    EXPECT_EQ(cfg.core.quantum, 200_ns);
    EXPECT_EQ(cfg.core.l2HitPenalty, 3u);
    EXPECT_EQ(cfg.core.llcHitPenalty, 12u);

    EXPECT_EQ(cfg.rrm.accessLatency, 2_ns);
    EXPECT_EQ(cfg.rrm.fastMode, WriteMode::Sets3);
    EXPECT_EQ(cfg.rrm.slowMode, WriteMode::Sets7);
    EXPECT_EQ(cfg.rrm.guardSeconds, 0.01);
    EXPECT_EQ(cfg.rrm.decayTicksPerInterval, 16u);

    EXPECT_EQ(cfg.adaptive.pressureHigh, 0.5);
    EXPECT_EQ(cfg.adaptive.pressureLow, 0.125);
    EXPECT_EQ(cfg.adaptive.reuseHigh, 0.53);
    EXPECT_EQ(cfg.adaptive.reuseDecay, 0.30);
    EXPECT_EQ(cfg.adaptive.reuseLow, 0.12);
    EXPECT_EQ(cfg.adaptive.maxThresholdMultiple, 4u);

    EXPECT_EQ(cfg.qos.budgetFactor, 1.0);
    EXPECT_EQ(cfg.qos.noisyFactor, 2.0);
}

} // namespace
} // namespace rrm
