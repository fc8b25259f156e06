/**
 * @file
 * Traced per-layer runner of the repository benchmark.
 *
 * For one workload and seed:
 *  1. runs the (Static-7-SETs, RRM) pair through sys::System, untimed,
 *     and reads every per-layer count from the stat trees;
 *  2. replays each run through perfbench::Pipeline twice, untraced and
 *     traced, and checks that the replay reproduces the real run's
 *     LLC misses, memory reads and writes and RRM registrations;
 *  3. times TraceSource::next and CacheHierarchy::access over the same
 *     record streams, and the bare event kernel at the replay's queue
 *     depth;
 *  4. attributes the traced replay's host time to the src/ layers.
 * Steps 2-4 repeat until --seconds have passed; times are medians.
 * The last stdout line is the JSON result.
 *
 *   perfbench_trace --workload chase-mcf --seed 3 --seconds 10 \
 *       [--spans-dir DIR]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "common.hh"
#include "replay.hh"

using namespace rrm;
using namespace perfbench;

namespace
{

/** Largest tolerated replay-vs-run difference of any compared count. */
constexpr double fidelityTolerance = 0.02;

/** Host time of one repetition, summed over the scheme pair (ns). */
struct LayerTimes
{
    double wallTraced = 0.0;
    double wallUntraced = 0.0;
    double trace = 0.0, cpu = 0.0, cache = 0.0, policy = 0.0,
           memctrl = 0.0, sim = 0.0;
    double records = 0.0, traceNs = 0.0, accessNs = 0.0;
    double fillNs = 0.0, fills = 0.0;
    double registerNs = 0.0, registers = 0.0;
    double modeNs = 0.0, modes = 0.0;
    double requests = 0.0;
    double kernelNs = 0.0;  ///< last scheme's calibration
    double inflation = 0.0; ///< largest of the pair
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
relGap(double replay, double real)
{
    return std::fabs(replay - real) / std::max(real, 1.0);
}

/** Replay one run untraced and traced; add its layer times to `lt`. */
double
replayOnce(const sys::SystemConfig &cfg,
           const std::map<std::string, double> &real, LayerTimes &lt,
           const std::string &spans_path, bool verbose)
{
    {
        Pipeline plain(cfg, nullptr);
        const double t0 = hostSeconds();
        plain.run();
        lt.wallUntraced += (hostSeconds() - t0) * 1e9;
    }

    Tracer tracer;
    Pipeline traced(cfg, &tracer);
    const double t0 = hostSeconds();
    traced.run();
    const double wall = (hostSeconds() - t0) * 1e9;
    if (!spans_path.empty())
        tracer.writeSpans(spans_path);

    const Tracer::Summary s = tracer.summarize(traced.eventsExecuted());
    const StreamTimes st = streamReplay(cfg, traced.recordsPerCore());
    const double kernel = calibrateEventKernel(
        static_cast<std::size_t>(tracer.meanQueueDepth() + 0.5));

    auto self = [&](SpanKind k) {
        return s.selfNs[static_cast<std::size_t>(k)];
    };
    auto calls = [&](SpanKind k) {
        return s.callsEst[static_cast<std::size_t>(k)];
    };
    // A step's own time, less the event kernel's per-event cost.
    auto step_self = [&](SpanKind k) {
        const auto c = static_cast<std::size_t>(k);
        return s.classSelfNs[c] - kernel * s.classSteps[c];
    };

    const double events = static_cast<double>(traced.eventsExecuted());
    lt.wallTraced += wall;
    lt.sim += kernel * events;
    lt.trace += st.traceNs;
    lt.cache += st.accessNs + self(SpanKind::Fill);
    lt.cpu += step_self(SpanKind::StepCpu) + self(SpanKind::Resume) -
              st.traceNs - st.accessNs;
    lt.policy += self(SpanKind::Register) + self(SpanKind::ModeQuery) +
                 step_self(SpanKind::StepRefresh);
    lt.memctrl += self(SpanKind::EnqueueRead) +
                  self(SpanKind::EnqueueWrite) +
                  self(SpanKind::EnqueueRefresh) +
                  step_self(SpanKind::StepMemResponse) +
                  step_self(SpanKind::StepDefault);
    lt.records += static_cast<double>(st.records);
    lt.traceNs += st.traceNs;
    lt.accessNs += st.accessNs;
    lt.fillNs += self(SpanKind::Fill);
    lt.fills += calls(SpanKind::Fill);
    lt.registerNs += self(SpanKind::Register);
    lt.registers += calls(SpanKind::Register);
    lt.modeNs += self(SpanKind::ModeQuery);
    lt.modes += calls(SpanKind::ModeQuery);
    lt.requests += calls(SpanKind::EnqueueRead) +
                   calls(SpanKind::EnqueueWrite) +
                   calls(SpanKind::EnqueueRefresh);
    lt.kernelNs = kernel;
    lt.inflation = std::max(lt.inflation, s.inflation);

    // Fidelity: the replay must reproduce the run it describes.
    const ReplayCounts rc = traced.counts();
    const double real_misses = sumStats(real, "", "llc.misses");
    const double real_reads = sumStats(real, "channel", ".reads");
    const double real_writes = sumStats(real, "channel", ".writes");
    const double real_regs = sumStats(real, "", "rrm.registrations");
    const double gap = std::max(
        {relGap(rc.llcMisses, real_misses), relGap(rc.memReads, real_reads),
         relGap(rc.memWrites, real_writes),
         relGap(rc.rrmRegistrations, real_regs)});
    if (!verbose)
        return gap;
    std::printf("# fidelity %-14s replay/run: llcMisses %.0f/%.0f "
                "memReads %.0f/%.0f memWrites %.0f/%.0f "
                "rrmRegistrations %.0f/%.0f -> max rel gap %.4g "
                "(tolerance %.2g)\n",
                cfg.scheme.name().c_str(), rc.llcMisses, real_misses,
                rc.memReads, real_reads, rc.memWrites, real_writes,
                rc.rrmRegistrations, real_regs, gap, fidelityTolerance);
    std::printf("# spans %-14s (step inflation %.3fx, kernel %.1f ns/event)\n",
                cfg.scheme.name().c_str(), s.inflation, kernel);
    for (std::size_t k = 0; k < numSpanKinds; ++k) {
        const bool step = k < numStepKinds;
        const double calls_k = step ? s.classSteps[k] : s.callsEst[k];
        const double self_k = step ? s.classSelfNs[k] : s.selfNs[k];
        if (calls_k > 0.0) {
            std::printf("#   %-22s calls %12.0f self %9.2f ms %8.1f ns/call\n",
                        spanKindName(static_cast<SpanKind>(k)), calls_k,
                        self_k / 1e6, self_k / calls_k);
        }
    }
    return gap;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    const WorkloadSpec *spec = nullptr;
    try {
        args = Args::parse(argc, argv, {"--spans-dir"});
        spec = &workloadByName(args.workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
        return 2;
    }
    const auto schemes = schemePair();
    const std::string spans_dir =
        args.extra.count("--spans-dir") ? args.extra["--spans-dir"] : "";

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::map<std::string, double>> real;
    std::vector<sys::SimResults> results;
    const double start = hostSeconds();
    try {
        // ---- 1. The untimed real runs: exact per-layer counts ----
        for (const auto &scheme : schemes) {
            ++attempted;
            sys::System system(makeConfig(*spec, scheme, args.seed));
            results.push_back(system.run());
            real.push_back(flattenStats(system.statRoot()));
        }
    } catch (const std::exception &e) {
        std::printf("# FAIL real run: %s\n", e.what());
        return 1;
    }

    // ---- 2-4. Replays, repeated for --seconds ----
    std::vector<LayerTimes> reps;
    double worst_gap = 0.0;
    while (reps.empty() || hostSeconds() - start < args.seconds) {
        LayerTimes lt;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            ++attempted;
            const std::string path =
                spans_dir.empty() ? ""
                                  : spans_dir + "/" + spec->name + "." +
                                        schemes[s].name() + ".spans";
            try {
                const double gap =
                    replayOnce(makeConfig(*spec, schemes[s], args.seed),
                               real[s], lt, path, reps.empty());
                worst_gap = std::max(worst_gap, gap);
                if (gap > fidelityTolerance) {
                    ++failed;
                    std::printf("# FAIL replay of %s drifts from the run\n",
                                schemes[s].name().c_str());
                }
            } catch (const std::exception &e) {
                ++failed;
                std::printf("# FAIL replay of %s: %s\n",
                            schemes[s].name().c_str(), e.what());
            }
        }
        reps.push_back(lt);
    }

    // ---- Medians of the host-time figures over repetitions ----
    auto med = [&](auto fn) {
        std::vector<double> v;
        for (const auto &lt : reps)
            v.push_back(fn(lt));
        return median(v);
    };
    // Shares all come from one repetition (the median by traced wall
    // time), so they sum to exactly 100%: the remainder after the six
    // layers is what no span covers, the replay loop itself.
    std::vector<const LayerTimes *> by_wall;
    for (const auto &lt : reps)
        by_wall.push_back(&lt);
    std::sort(by_wall.begin(), by_wall.end(),
              [](const LayerTimes *a, const LayerTimes *b) {
                  return a->wallTraced < b->wallTraced;
              });
    const LayerTimes &mid = *by_wall[(by_wall.size() - 1) / 2];
    auto share = [&](double part) { return 100.0 * part / mid.wallTraced; };
    const double trace_share = share(mid.trace);
    const double cpu_share = share(mid.cpu);
    const double cache_share = share(mid.cache);
    const double policy_share = share(mid.policy);
    const double memctrl_share = share(mid.memctrl);
    const double sim_share = share(mid.sim);
    const double unattributed_share =
        share(mid.wallTraced - mid.trace - mid.cpu - mid.cache - mid.policy -
              mid.memctrl - mid.sim);

    // ---- Exact counts from the real runs' stat trees ----
    auto both = [&](const std::string &prefix, const std::string &suffix) {
        double v = 0.0;
        for (const auto &flat : real)
            v += sumStats(flat, prefix, suffix);
        return v;
    };
    const auto &rrm_stats = real[1];
    const double l1_hits = both("l1d", ".hits");
    const double l1_lookups = l1_hits + both("l1d", ".misses");
    const double registrations =
        sumStats(rrm_stats, "", "rrm.registrations");
    const double mem_reads = both("channel", ".reads");
    const double latency_samples = both("channel", ".readLatency::samples");
    double events = 0.0;
    for (const auto &r : results)
        events += static_cast<double>(r.eventsExecuted);

    std::vector<Metric> m = {
        {"trace.records", both("core", ".memOps"), "count"},
        {"trace.ns_per_record",
         med([](const LayerTimes &lt) {
             return ratio(lt.traceNs, lt.records);
         }),
         "ns"},
        {"trace.share", trace_share, "%"},
        {"cpu.share", cpu_share, "%"},
        {"cpu.rob_stalls", both("core", ".robStalls"), "count"},
        {"cpu.mshr_stalls", both("core", ".mshrStalls"), "count"},
        {"cpu.resource_stalls", both("core", ".resourceStalls"), "count"},
        {"cache.accesses", l1_lookups, "count"},
        {"cache.ns_per_access",
         med([](const LayerTimes &lt) {
             return ratio(lt.accessNs, lt.records);
         }),
         "ns"},
        {"cache.ns_per_fill",
         med([](const LayerTimes &lt) { return ratio(lt.fillNs, lt.fills); }),
         "ns"},
        {"cache.share", cache_share, "%"},
        {"cache.l1_hit_ratio", ratio(l1_hits, l1_lookups), "frac"},
        {"cache.llc_miss_ratio",
         ratio(both("", "llc.misses"), both("l2", ".misses")), "frac"},
        {"cache.dirty_evictions", both("", "llc.dirtyEvictions"), "count"},
        {"policy.ns_per_registration",
         med([](const LayerTimes &lt) {
             return ratio(lt.registerNs, lt.registers);
         }),
         "ns"},
        {"policy.ns_per_mode_query",
         med([](const LayerTimes &lt) { return ratio(lt.modeNs, lt.modes); }),
         "ns"},
        {"policy.share", policy_share, "%"},
        {"rrm.registrations", registrations, "count"},
        {"rrm.clean_filtered_ratio",
         ratio(sumStats(rrm_stats, "", "rrm.cleanFiltered"), registrations),
         "frac"},
        {"rrm.hit_ratio",
         ratio(sumStats(rrm_stats, "", "rrm.registrationHits"),
               registrations),
         "frac"},
        {"rrm.promotions", sumStats(rrm_stats, "", "rrm.promotions"),
         "count"},
        {"rrm.fast_write_frac", results[1].fastWriteFraction(), "frac"},
        {"rrm.fast_refreshes", sumStats(rrm_stats, "", "rrm.fastRefreshes"),
         "count"},
        {"memctrl.reads", mem_reads, "count"},
        {"memctrl.writes", both("channel", ".writes"), "count"},
        {"memctrl.refreshes", both("channel", ".rrmRefreshes"), "count"},
        {"memctrl.ns_per_request",
         med([](const LayerTimes &lt) {
             return ratio(lt.memctrl, lt.requests);
         }),
         "ns"},
        {"memctrl.share", memctrl_share, "%"},
        {"memctrl.row_hit_ratio", ratio(both("channel", ".rowHits"), mem_reads),
         "frac"},
        {"memctrl.write_pauses", both("channel", ".writePauses"), "count"},
        {"memctrl.read_latency_ns",
         ratio(both("channel", ".readLatency::sum"), latency_samples) /
             static_cast<double>(tickPerNs),
         "ns"},
        {"sim.events", events, "count"},
        {"sim.host_ns_per_event",
         med([](const LayerTimes &lt) { return lt.kernelNs; }), "ns"},
        {"sim.share", sim_share, "%"},
        {"system.fill_refusals", both("", "sys.fillRefusals"), "count"},
        {"system.refresh_overflows", both("", "sys.refreshOverflows"),
         "count"},
        {"system.writeback_blocked", both("", "sys.writebackBlocked"),
         "count"},
        {"unattributed.share", unattributed_share, "%"},
        {"trace_overhead",
         med([](const LayerTimes &lt) {
             return lt.wallTraced / lt.wallUntraced;
         }),
         "x"},
        {"trace.step_inflation",
         med([](const LayerTimes &lt) { return lt.inflation; }), "x"},
        {"replay.max_rel_gap", worst_gap, "frac"},
    };

    std::printf("# %s seed %llu: %zu traced repetition(s); layer shares of "
                "the traced replay's host time (sum %.4f%%)\n",
                spec->name.c_str(),
                static_cast<unsigned long long>(args.seed), reps.size(),
                trace_share + cpu_share + cache_share + policy_share +
                    memctrl_share + sim_share + unattributed_share);
    for (const auto &metric : m) {
        std::printf("#   %-28s %16.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    }

    bool finite = true;
    for (const auto &metric : m)
        finite &= std::isfinite(metric.value);
    printResult(failed == 0 && finite, attempted, failed, m);
    return 0;
}
