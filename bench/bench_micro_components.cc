/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * PRNG/Zipf sampling, trace generation, cache accesses, RRM
 * operations, the event queue, and controller scheduling. These bound
 * the simulator's own throughput (simulated events per host second),
 * not any paper metric.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/random.hh"
#include "memctrl/controller.hh"
#include "rrm/region_monitor.hh"
#include "sim/event_queue.hh"
#include "trace/generator.hh"

using namespace rrm;

namespace
{

void
BM_RandomNext(benchmark::State &state)
{
    Random rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RandomNext);

void
BM_ZipfSample(benchmark::State &state)
{
    Random rng(1);
    ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.8);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(256)->Arg(4096)->Arg(65536);

void
BM_TraceGeneratorNext(benchmark::State &state)
{
    const auto &profile =
        trace::benchmarkProfile(trace::Benchmark::GemsFDTD);
    trace::TraceGenerator gen(profile, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneratorNext);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    cache::CacheHierarchy hierarchy(cache::defaultHierarchyConfig());
    Random rng(1);
    // Warm a small working set so the mix has hits and misses.
    for (int i = 0; i < 4096; ++i) {
        const Addr a = rng.uniform(1 << 16) * 64;
        if (hierarchy.access(0, a, false).llcMiss)
            hierarchy.fill(0, a, false);
    }
    for (auto _ : state) {
        const Addr a = rng.uniform(1 << 16) * 64;
        const auto ev = hierarchy.access(0, a, rng.chance(0.3));
        if (ev.llcMiss)
            hierarchy.fill(0, a, false);
    }
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_RrmRegistration(benchmark::State &state)
{
    EventQueue queue;
    monitor::RrmConfig cfg;
    monitor::RegionMonitor rrm(cfg, queue);
    Random rng(1);
    ZipfSampler zipf(6144, 0.8);
    for (auto _ : state) {
        const Addr addr =
            zipf.sample(rng) * 4096 + rng.uniform(64) * 64;
        rrm.registerLlcWrite(addr, true);
    }
}
BENCHMARK(BM_RrmRegistration);

void
BM_RrmWriteModeDecision(benchmark::State &state)
{
    EventQueue queue;
    monitor::RrmConfig cfg;
    monitor::RegionMonitor rrm(cfg, queue);
    Random rng(1);
    for (int i = 0; i < 100000; ++i)
        rrm.registerLlcWrite(rng.uniform(6144) * 4096, true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rrm.writeModeFor(rng.uniform(8192) * 4096));
    }
}
BENCHMARK(BM_RrmWriteModeDecision);

/** An event that reschedules itself at the next tabled lead time. */
struct SelfRearm
{
    EventQueue *queue;
    const std::vector<Tick> *leads;
    std::size_t *cursor;

    void
    operator()() const
    {
        const Tick lead = (*leads)[(*cursor)++ % leads->size()];
        queue->scheduleAfter(lead, *this);
    }
};

/**
 * Steady-state kernel cost at a fixed pending depth: `depth` events
 * each reschedule themselves 10 ns to 1 us ahead (log-uniform, from a
 * precomputed table), so every step() is one dispatch plus one
 * schedule against a queue that never drains. Simulation runs sit at
 * a mean pending depth of 15-25; 64 shows the trend beyond it. This
 * is the number that decides the event-queue structure (DESIGN.md
 * section 15).
 */
void
BM_EventQueueSteadyState(benchmark::State &state)
{
    std::vector<Tick> leads(4096);
    Random rng(1);
    for (Tick &lead : leads) {
        lead = static_cast<Tick>(static_cast<double>(10_ns) *
                                 std::pow(100.0, rng.uniformDouble()));
    }
    EventQueue queue;
    std::size_t cursor = 0;
    const SelfRearm rearm{&queue, &leads, &cursor};
    for (std::int64_t i = 0; i < state.range(0); ++i)
        rearm();
    for (auto _ : state)
        benchmark::DoNotOptimize(queue.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(16)->Arg(24)->Arg(64);

void
BM_ControllerRandomReads(benchmark::State &state)
{
    EventQueue queue;
    memctrl::MemoryParams params;
    memctrl::Controller ctrl(params, queue);
    Random rng(1);
    std::uint64_t completed = 0;
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i) {
            ctrl.enqueueRead(rng.uniform(1_GiB / 64) * 64,
                             [&](Tick) { ++completed; });
        }
        queue.run();
    }
    benchmark::DoNotOptimize(completed);
}
BENCHMARK(BM_ControllerRandomReads);

} // namespace

BENCHMARK_MAIN();
