/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * PRNG/Zipf sampling, trace generation, cache accesses and fills, the
 * core model, RRM operations, the event queue, controller scheduling,
 * the write path's staging queues, and System construction.
 * These bound the simulator's own throughput (simulated events per
 * host second), not any paper metric.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/random.hh"
#include "cpu/core_model.hh"
#include "memctrl/controller.hh"
#include "obs/run_record.hh"
#include "rrm/region_monitor.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "system/write_path.hh"
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

/**
 * The LLC miss path with back-invalidation, on the paper's 4-core
 * hierarchy. The cores take turns walking a footprint twice the LLC's
 * size in line order, so under LRU every access misses the LLC and,
 * once the LLC is full, every fill evicts; the next core then reads
 * the same line (an LLC hit), so each victim is held by two cores.
 * Items are fills.
 */
void
BM_CacheHierarchyFill(benchmark::State &state)
{
    cache::CacheHierarchy hierarchy(cache::defaultHierarchyConfig());
    const unsigned cores = hierarchy.config().numCores;
    const std::uint64_t lines =
        2 * hierarchy.config().llc.sizeBytes / blockBytes;
    std::uint64_t i = 0;
    const auto step = [&] {
        const Addr addr = (i % lines) * blockBytes;
        const auto core = static_cast<unsigned>(i % cores);
        const bool is_write = i % 3 == 0;
        if (hierarchy.access(core, addr, is_write).llcMiss)
            benchmark::DoNotOptimize(hierarchy.fill(core, addr, is_write));
        benchmark::DoNotOptimize(
            hierarchy.access((core + 1) % cores, addr, false));
        ++i;
    };
    for (std::uint64_t w = 0; w < lines / 2; ++w)
        step(); // fill the LLC
    for (auto _ : state)
        step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyFill);

/** Memory stand-in: every fill completes a fixed 200 ns later. */
struct FixedLatencyPort : cpu::CorePort
{
    EventQueue &queue;
    cpu::CoreModel *core = nullptr;

    explicit FixedLatencyPort(EventQueue &q) : queue(q) {}

    bool
    requestFill(unsigned, Addr line, bool, Tick when) override
    {
        queue.schedule(when + 200_ns, [this, line] {
            core->onFillComplete(line);
        });
        return true;
    }

    void
    handleAccessEvents(unsigned, const cache::HierarchyEvents &,
                       Tick) override
    {}
};

/**
 * One hmmer core over the paper's hierarchy, one event per iteration
 * (a run-ahead quantum of trace records or a fill completion). Items
 * are trace records, so items/s is the core model's record rate with
 * its cache accesses included.
 */
void
BM_CoreModelAdvance(benchmark::State &state)
{
    EventQueue queue;
    cache::CacheHierarchy hierarchy(cache::defaultHierarchyConfig());
    FixedLatencyPort port(queue);
    cpu::CoreModel core(
        0, cpu::CoreParams{},
        trace::TraceSource::generate(
            trace::benchmarkProfile(trace::Benchmark::Hmmer), 1),
        hierarchy, port, queue, 0);
    port.core = &core;
    stats::StatGroup group("bench");
    core.regStats(group);
    core.start();
    for (auto _ : state)
        benchmark::DoNotOptimize(queue.step());
    const auto *records =
        dynamic_cast<const stats::Scalar *>(group.find("core0.memOps"));
    state.SetItemsProcessed(static_cast<std::int64_t>(records->value()));
}
BENCHMARK(BM_CoreModelAdvance);

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

/**
 * The scheduler under a write-heavy phase: each iteration sends 64
 * writes (alternating 3- and 7-SET) and 16 reads to four banks of
 * channel 0, eight requests every 40 ns, so the write queue passes the
 * high watermark and drains to the low one while reads pause the
 * writes in flight; then it runs the queue dry. Items are requests.
 */
void
BM_ControllerMixedTraffic(benchmark::State &state)
{
    EventQueue queue;
    memctrl::MemoryParams params;
    memctrl::Controller ctrl(params, queue);
    // Channel 0's row-buffer segments; the bank is the segment index's
    // low bits.
    const Addr segment = params.numChannels * params.rowBufferBytes;
    constexpr unsigned requests = 80;
    Random rng(1);
    std::uint64_t completed = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < requests; ++i) {
            const Addr addr =
                (rng.uniform(4) * params.banksPerChannel + rng.uniform(4)) *
                    segment +
                rng.uniform(params.rowBufferBytes / blockBytes) * blockBytes;
            if (i % 5 == 4) {
                ctrl.enqueueRead(addr, [&](Tick) { ++completed; });
            } else {
                ctrl.enqueueWrite(addr, i % 2 ? pcm::WriteMode::Sets7
                                              : pcm::WriteMode::Sets3);
            }
            if (i % 8 == 7)
                queue.run(queue.now() + 40_ns);
        }
        queue.run();
    }
    benchmark::DoNotOptimize(completed);
    state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_ControllerMixedTraffic);

/**
 * The write path under backpressure, hooked to the controller as the
 * System hooks it. Each iteration sends twice a controller queue's
 * worth of writebacks (alternating 3- and 7-SET writes) and of
 * refreshes to random channel 0 lines, so the surplus backs up in the
 * 16-entry writeback buffer and in the refresh overflow queue; then
 * it runs the event queue dry. Spread over all four channels, the
 * writebacks would never fill a controller write queue and the buffer
 * would stay empty. Items are writes plus refreshes.
 */
void
BM_WritePathDrain(benchmark::State &state)
{
    EventQueue queue;
    memctrl::MemoryParams params;
    memctrl::Controller ctrl(params, queue);
    sys::WritePath path(ctrl, queue, 16, params.busCycle);
    ctrl.setWriteIssuedHook([&path] { path.drainWritebacks(); });
    ctrl.setCompletionHook([&path](const memctrl::Request &req, Tick) {
        if (req.kind == memctrl::ReqKind::RrmRefresh)
            path.drainRefreshOverflow();
    });
    stats::StatGroup group("bench");
    path.regStats(group);

    const unsigned writebacks = 2 * params.writeQueueCap;
    const unsigned refreshes = 2 * params.refreshQueueCap;
    // Multiples of this stride are channel 0 lines (any bank and row).
    const Addr channel0 = params.numChannels * params.rowBufferBytes;
    Random rng(1);
    const auto line = [&] {
        return rng.uniform(params.memoryBytes / channel0) * channel0;
    };
    for (auto _ : state) {
        for (unsigned i = 0; i < writebacks; ++i) {
            path.queueWriteback(line(), i % 2 ? pcm::WriteMode::Sets7
                                              : pcm::WriteMode::Sets3);
        }
        for (unsigned i = 0; i < refreshes; ++i)
            path.submitRefresh(line(), pcm::WriteMode::Sets3);
        benchmark::DoNotOptimize(queue.run());
    }
    state.SetItemsProcessed(state.iterations() *
                            (writebacks + refreshes));
    for (const char *name : {"writebackBlocked", "refreshOverflows"}) {
        const auto *stat =
            dynamic_cast<const stats::Scalar *>(group.find(name));
        state.counters[name] = benchmark::Counter(
            stat->value(), benchmark::Counter::kAvgIterations);
    }
}
BENCHMARK(BM_WritePathDrain);

/**
 * What perfbench's setup_s times: building a System for 4 hmmer cores
 * (its resident-hmmer config) from a fresh SystemConfig, under one
 * scheme. Destruction is left out of the time, as it is there.
 */
void
BM_SystemConstruction(benchmark::State &state, const sys::Scheme &scheme)
{
    std::optional<sys::System> system;
    for (auto _ : state) {
        const double t0 = obs::steadySeconds();
        sys::SystemConfig cfg;
        cfg.workload = trace::singleWorkload(trace::Benchmark::Hmmer);
        cfg.hierarchy.numCores =
            static_cast<unsigned>(cfg.workload.numCores());
        cfg.scheme = scheme;
        cfg.windowSeconds = 0.004;
        cfg.seed = 1;
        benchmark::DoNotOptimize(&system.emplace(std::move(cfg)));
        state.SetIterationTime(obs::steadySeconds() - t0);
        system.reset();
    }
}
BENCHMARK_CAPTURE(BM_SystemConstruction, Static7Sets,
                  sys::Scheme::staticScheme(pcm::WriteMode::Sets7))
    ->UseManualTime();
BENCHMARK_CAPTURE(BM_SystemConstruction, Rrm, sys::Scheme::rrmScheme())
    ->UseManualTime();

} // namespace

BENCHMARK_MAIN();
