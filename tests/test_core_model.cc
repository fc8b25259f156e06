/**
 * @file
 * Tests for the trace-driven core model: miss issuing, MSHR limits,
 * ROB-occupancy stalls, and resume behaviour. Uses a fake CorePort so
 * the memory system can be scripted.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/check.hh"
#include "cpu/core_model.hh"

namespace rrm::cpu
{
namespace
{

/** Scripted memory system: records fills; completion on demand. */
struct FakePort : public CorePort
{
    struct Fill
    {
        unsigned core;
        Addr line;
        bool isWrite;
        Tick when;
    };

    std::deque<Fill> fills;
    bool accept = true;
    int refusals = 0;
    std::vector<cache::HierarchyEvents> events;

    bool
    requestFill(unsigned core, Addr line, bool is_write,
                Tick when) override
    {
        if (!accept) {
            ++refusals;
            return false;
        }
        fills.push_back({core, line, is_write, when});
        return true;
    }

    void
    handleAccessEvents(unsigned, const cache::HierarchyEvents &ev,
                       Tick) override
    {
        events.push_back(ev);
    }
};

/** A pointer-chase profile over a footprint far beyond the caches. */
trace::BenchmarkProfile
missHeavyProfile()
{
    trace::PatternSpec spec{};
    spec.kind = trace::PatternSpec::Kind::Chase;
    spec.weight = 1.0;
    spec.footprintBytes = 64_MiB;
    spec.writeFraction = 0.0;
    return trace::BenchmarkProfile{"chase", 500.0, 0.0, {spec}};
}

/** A profile whose entire footprint fits in the L1. */
trace::BenchmarkProfile
hitHeavyProfile()
{
    trace::PatternSpec spec{};
    spec.kind = trace::PatternSpec::Kind::ZipfRegion;
    spec.weight = 1.0;
    spec.footprintBytes = 8_KiB;
    spec.writeFraction = 0.2;
    spec.zipfSkew = 0.5;
    spec.regionBytes = 4096;
    return trace::BenchmarkProfile{"resident", 200.0, 0.0, {spec}};
}

struct Fixture
{
    EventQueue queue;
    cache::CacheHierarchy hierarchy;
    FakePort port;
    CoreParams params;

    Fixture() : hierarchy(smallHierarchy()) {}

    static cache::HierarchyConfig
    smallHierarchy()
    {
        cache::HierarchyConfig cfg;
        cfg.numCores = 1;
        cfg.l1.sizeBytes = 4096;
        cfg.l2.sizeBytes = 8192;
        cfg.llc.sizeBytes = 16384;
        return cfg;
    }

    CoreModel
    makeCore(const trace::BenchmarkProfile &profile)
    {
        return CoreModel(0, params, trace::TraceSource::generate(profile, 1),
                         hierarchy, port, queue, 0);
    }
};

TEST(CoreModel, MissHeavyTraceIssuesFills)
{
    Fixture f;
    // Keep per-benchmark static storage alive across the test.
    const auto profile = missHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(10_us);
    EXPECT_FALSE(f.port.fills.empty());
    EXPECT_GT(core.instructionsRetired(), 0u);
}

TEST(CoreModel, StallsAtMshrLimitAndResumesOnCompletion)
{
    Fixture f;
    f.params.maxOutstandingMisses = 4;
    f.params.robSize = 100000; // loads never block retirement here
    const auto profile = missHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(100_us);
    // With no completions, exactly maxOutstandingMisses fills issue.
    EXPECT_EQ(f.port.fills.size(), 4u);
    EXPECT_TRUE(core.stalled());

    // Complete one fill: the core must issue another.
    const Addr line = f.port.fills.front().line;
    f.port.fills.pop_front();
    core.onFillComplete(line);
    f.queue.run(200_us);
    EXPECT_EQ(f.port.fills.size(), 4u);
}

TEST(CoreModel, RobLimitsRunaheadPastBlockedLoad)
{
    Fixture f;
    f.params.robSize = 64;
    f.params.maxOutstandingMisses = 100;
    const auto profile = missHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(100_us);
    EXPECT_TRUE(core.stalled());
    // With a ~500 memops/kinst chase trace, a 64-entry ROB admits
    // only a couple of misses before the oldest blocks retirement.
    EXPECT_LT(f.port.fills.size(), 70u);
    const auto issued_before = f.port.fills.size();

    // Completing the oldest load unblocks further dispatch.
    const Addr line = f.port.fills.front().line;
    f.port.fills.pop_front();
    core.onFillComplete(line);
    f.queue.run(200_us);
    EXPECT_GT(f.port.fills.size() + 1, issued_before);
}

TEST(CoreModel, RobStallWaitsForTheOldestLoad)
{
    Fixture f;
    f.params.robSize = 64;
    // Loads over two lines: each misses once and every later load
    // merges into its fill, so the ROB fills up behind exactly two
    // outstanding load fills.
    trace::PatternSpec spec{};
    spec.kind = trace::PatternSpec::Kind::Chase;
    spec.weight = 1.0;
    spec.footprintBytes = 128;
    spec.writeFraction = 0.0;
    const trace::BenchmarkProfile profile{"two_lines", 500.0, 0.0, {spec}};
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(10_us);
    ASSERT_TRUE(core.stalled());
    ASSERT_EQ(f.port.fills.size(), 2u);
    const auto stalled_at = core.instructionsRetired();

    // The younger fill returns first: the older load still blocks
    // retirement, so the core stays stalled.
    core.onFillComplete(f.port.fills[1].line);
    f.queue.run(20_us);
    EXPECT_TRUE(core.stalled());
    EXPECT_EQ(core.instructionsRetired(), stalled_at);

    // The older fill returns: no load is outstanding, dispatch resumes.
    core.onFillComplete(f.port.fills[0].line);
    f.queue.run(30_us);
    EXPECT_FALSE(core.stalled());
    EXPECT_GT(core.instructionsRetired(), stalled_at);
}

TEST(CoreModel, HitHeavyTraceRunsWithoutMemory)
{
    Fixture f;
    const auto profile = hitHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(10_us);
    // Footprint fits in the hierarchy: after cold misses the core
    // retires instructions with no further fills.
    const auto early_fills = f.port.fills.size();
    const auto early_instr = core.instructionsRetired();
    for (auto &fill : f.port.fills)
        core.onFillComplete(fill.line);
    f.port.fills.clear();
    f.queue.run(100_us);
    EXPECT_GT(core.instructionsRetired(), early_instr);
    EXPECT_LE(f.port.fills.size(), early_fills + 256);
}

TEST(CoreModel, RefusedFillStallsUntilResume)
{
    Fixture f;
    f.port.accept = false;
    const auto profile = missHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(10_us);
    EXPECT_TRUE(core.stalled());
    EXPECT_GE(f.port.refusals, 1);
    const auto instr_stalled = core.instructionsRetired();

    f.port.accept = true;
    core.resume();
    f.queue.run(20_us);
    EXPECT_GT(core.instructionsRetired(), instr_stalled);
    EXPECT_FALSE(f.port.fills.empty());
}

TEST(CoreModel, ResumeWithoutResourceStallIsNoOp)
{
    Fixture f;
    const auto profile = hitHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    EXPECT_NO_THROW(core.resume());
    f.queue.run(1_us);
}

TEST(CoreModel, UnknownFillCompletionPanics)
{
    Fixture f;
    const auto profile = hitHeavyProfile();
    CoreModel core = f.makeCore(profile);
    EXPECT_THROW(core.onFillComplete(0x123440), check::CheckError);
}

TEST(CoreModel, IpcReflectsRetiredInstructions)
{
    Fixture f;
    const auto profile = hitHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(100_us);
    const double ipc = core.ipc(100_us);
    EXPECT_GT(ipc, 0.0);
    EXPECT_LE(ipc, f.params.width);
    EXPECT_NEAR(ipc,
                static_cast<double>(core.instructionsRetired()) /
                    (100_us / f.params.cycle),
                0.01);
}

TEST(CoreModel, ResetInstructionCountForWarmup)
{
    Fixture f;
    const auto profile = hitHeavyProfile();
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(10_us);
    EXPECT_GT(core.instructionsRetired(), 0u);
    core.resetInstructionCount();
    EXPECT_EQ(core.instructionsRetired(), 0u);
}

TEST(CoreModel, MergesSecondaryMissesToSameLine)
{
    Fixture f;
    // Chase over a tiny footprint: repeated misses on few lines.
    trace::PatternSpec spec{};
    spec.kind = trace::PatternSpec::Kind::Chase;
    spec.weight = 1.0;
    spec.footprintBytes = 128; // two blocks only
    spec.writeFraction = 0.5;
    const trace::BenchmarkProfile profile{"two_blocks", 500.0, 0.0,
                                          {spec}};
    CoreModel core = f.makeCore(profile);
    core.start();
    f.queue.run(10_us);
    // Both lines miss once; every later access merges. At most two
    // outstanding fills can exist.
    EXPECT_LE(f.port.fills.size(), 2u);
}

} // namespace
} // namespace rrm::cpu
