/**
 * @file
 * Simulator-throughput benchmark: runs the selected workloads under a
 * representative scheme pair (Static-7-SETs and RRM) and reports host
 * throughput — events executed, wall seconds, events per host second —
 * per run and for the whole plan, as BENCH_speed.json (see
 * run/speed_report.hh for the schema). tools/bench-diff compares two
 * such reports and fails on regression; CI runs that comparison
 * against bench/baselines/BENCH_speed.baseline.json.
 *
 * Unlike the paper-reproduction benches this measures the simulator
 * itself, not any paper metric. Under SOURCE_DATE_EPOCH all wall
 * metrics are pinned to 0, which makes the report byte-identical
 * across --jobs values (exercised by the determinism tests).
 */

#include <cstdio>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "bench_common.hh"
#include "run/speed_report.hh"

using namespace rrm;

int
benchMain(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_speed", bench::RunFlags | bench::JsonOutFlag);
    const auto workloads = opts.selectedWorkloads();
    const std::vector<sys::Scheme> schemes = {
        sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
        sys::Scheme::rrmScheme(),
    };

    bench::PlanBuilder builder(opts);
    const run::RunReport report =
        builder.matrix(workloads, schemes).execute();

    bench::printTitle("Simulator throughput (host-side)");
    std::printf("%-28s %14s %10s %12s\n", "run", "events", "wall s",
                "Mev/s");
    for (const auto &run : report.runs) {
        std::printf("%-28s %14llu %10.3f %12.3f\n", run.id.c_str(),
                    static_cast<unsigned long long>(run.eventsExecuted),
                    run.wallSeconds, run.eventsPerSecond / 1e6);
    }
    bench::printRule();

    const std::string out =
        opts.jsonOut.empty() ? "BENCH_speed.json" : opts.jsonOut;
    AtomicFile file(out);
    run::writeSpeedReport(file.stream(), "speed", report);
    file.commit();
    std::fprintf(stderr, "speed report: %s\n", out.c_str());
    return 0;
}
