/**
 * @file
 * Ablation studies of the design choices DESIGN.md calls out:
 *
 *  1. the RRM's dirty-write streaming filter (Section IV-D): without
 *     it, streaming footprints turn hot, ballooning selective-refresh
 *     wear for regions that are written once per pass;
 *  2. write pausing (Table V / Qureshi HPCA'10): without it, reads
 *     queue behind multi-SET write pulse trains;
 *  3. the refresh timing mode of the scaled runs (DESIGN.md section
 *     3): RateCorrected vs Detailed vs CountOnly.
 *
 * Each ablation runs a streaming-heavy and a reuse-heavy workload.
 * All variants go into one RunPlan so --jobs parallelises across the
 * whole study; run ids encode the varied knob.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace rrm;

int
benchMain(int argc, char **argv)
{
    bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_ablation", bench::RunFlags);
    if (opts.workloads.empty())
        opts.workloads = {"libquantum", "GemsFDTD"};
    const auto workloads = opts.selectedWorkloads();

    const auto s7 = sys::Scheme::staticScheme(pcm::WriteMode::Sets7);
    const auto rrm_scheme = sys::Scheme::rrmScheme();
    const std::pair<sys::RefreshTimingMode, const char *> modes[] = {
        {sys::RefreshTimingMode::RateCorrected, "rate-corr"},
        {sys::RefreshTimingMode::Detailed, "detailed"},
        {sys::RefreshTimingMode::CountOnly, "count-only"},
    };

    // ---- One plan covering all three ablations ----
    bench::PlanBuilder plan(opts);
    for (const auto &w : workloads) {
        for (bool filter : {true, false}) {
            plan.run(w, rrm_scheme)
                .tag(w.name + ".rrm-filter-" + (filter ? "on" : "off"))
                .with([filter](sys::SystemConfig &cfg) {
                    cfg.rrm.dirtyWriteFilter = filter;
                });
        }
        for (const auto &scheme : {s7, rrm_scheme}) {
            for (bool pausing : {true, false}) {
                plan.run(w, scheme)
                    .tag(w.name + "." + scheme.name() + ".pause-" +
                         (pausing ? "on" : "off"))
                    .with([pausing](sys::SystemConfig &cfg) {
                        cfg.memory.writePausing = pausing;
                    });
            }
        }
        for (const auto &[mode, label] : modes) {
            plan.run(w, rrm_scheme)
                .tag(w.name + ".rrm-rt-" + label)
                .with([mode = mode](sys::SystemConfig &cfg) {
                    cfg.refreshTiming = mode;
                });
        }
    }
    const run::RunReport report = plan.execute();

    // ---- 1. dirty-write filter ----
    bench::printTitle(
        "Ablation 1: RRM dirty-write streaming filter (IV-D)");
    std::printf("%-12s %-10s %10s %12s %12s %14s\n", "workload",
                "filter", "IPC", "fast frac", "life (yr)",
                "rrm rf (wr/s)");
    for (const auto &w : workloads) {
        for (bool filter : {true, false}) {
            const auto &r =
                report
                    .find(w.name + ".rrm-filter-" +
                          (filter ? "on" : "off"))
                    ->results;
            std::printf("%-12s %-10s %10.3f %11.1f%% %12.3f %14.4g\n",
                        filter ? w.name.c_str() : "",
                        filter ? "on" : "off", r.aggregateIpc,
                        100.0 * r.fastWriteFraction(),
                        r.lifetimeYears, r.rrmRefreshRate);
        }
    }
    std::printf("expected: without the filter, streaming workloads "
                "mark far more regions hot -> more fast writes but "
                "more selective-refresh wear (shorter lifetime).\n");

    // ---- 2. write pausing ----
    bench::printTitle("Ablation 2: write pausing (Table V)");
    std::printf("%-12s %-14s %-10s %10s\n", "workload", "scheme",
                "pausing", "IPC");
    for (const auto &w : workloads) {
        for (const auto &scheme : {s7, rrm_scheme}) {
            for (bool pausing : {true, false}) {
                const auto &r =
                    report
                        .find(w.name + "." + scheme.name() +
                              ".pause-" + (pausing ? "on" : "off"))
                        ->results;
                std::printf("%-12s %-14s %-10s %10.3f\n",
                            w.name.c_str(), scheme.name().c_str(),
                            pausing ? "on" : "off", r.aggregateIpc);
            }
        }
    }
    std::printf("expected: pausing recovers read latency lost behind "
                "long pulse trains; the gain grows with slower "
                "writes (Static-7).\n");

    // ---- 3. refresh timing mode ----
    bench::printTitle(
        "Ablation 3: RRM refresh timing under time scaling");
    std::printf("%-12s %-14s %10s %12s\n", "workload", "mode", "IPC",
                "life (yr)");
    for (const auto &w : workloads) {
        for (const auto &[mode, label] : modes) {
            const auto &r =
                report.find(w.name + ".rrm-rt-" + label)->results;
            std::printf("%-12s %-14s %10.3f %12.3f\n", w.name.c_str(),
                        label, r.aggregateIpc, r.lifetimeYears);
        }
    }
    std::printf("expected: 'detailed' injects timeScale-x-inflated "
                "refresh traffic into the timing path (pessimistic "
                "for RRM); rate-corrected ~= count-only on IPC, and "
                "all three agree on wear/lifetime.\n");
    return 0;
}
