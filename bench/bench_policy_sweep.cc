/**
 * @file
 * Write-policy sweep: the two static anchors (7-SETs, 3-SETs), the
 * paper's RRM, and the Adaptive-RRM extension side by side on the
 * Table VII workloads.
 *
 * Adaptive-RRM adjusts hot_threshold once per decay epoch from
 * refresh-queue pressure and region reuse (see DESIGN.md section 12).
 * The interesting comparison is against fixed-threshold RRM: on
 * low-reuse (streaming) workloads the adaptive floor suppresses
 * useless fast-write promotion, cutting selective refreshes at
 * equal-or-better IPC; on reuse-heavy workloads it should track RRM.
 *
 * Emits BENCH_policy.json (full SimResults per run) for the CI
 * policy-equivalence job and offline analysis.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"

using namespace rrm;

int
benchMain(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_policy_sweep",
        bench::RunFlags | bench::JsonOutFlag);
    const auto workloads = opts.selectedWorkloads();

    const std::vector<sys::Scheme> schemes = {
        sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
        sys::Scheme::staticScheme(pcm::WriteMode::Sets3),
        sys::Scheme::rrmScheme(),
        sys::Scheme::adaptiveRrmScheme(),
    };

    const auto results = bench::runMatrix(workloads, schemes, opts);
    bench::writeBenchReport(opts.jsonOut.empty() ? "BENCH_policy.json"
                                                 : opts.jsonOut,
                            "policy_sweep", opts, workloads, schemes,
                            results);

    bench::printTitle("Write-policy sweep: static / RRM / Adaptive-RRM");

    std::printf("%-12s %-14s %10s %12s %12s %12s\n", "workload",
                "scheme", "IPC", "refreshes", "fastWr%", "life (y)");

    const std::size_t n_schemes = schemes.size();
    std::vector<double> ipc_geo(n_schemes, 1.0);
    std::size_t adaptive_wins = 0;

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t s = 0; s < n_schemes; ++s) {
            const sys::SimResults &r = results[w][s];
            const std::uint64_t refreshes =
                r.rrmFastRefreshes + r.rrmSlowRefreshes;
            ipc_geo[s] *= r.aggregateIpc;
            std::printf("%-12s %-14s %10.3f %12llu %11.1f%% %12.3f\n",
                        s == 0 ? workloads[w].name.c_str() : "",
                        r.scheme.c_str(), r.aggregateIpc,
                        static_cast<unsigned long long>(refreshes),
                        100.0 * r.fastWriteFraction(),
                        r.lifetimeYears);
        }
        // schemes[2] is RRM, schemes[3] is Adaptive-RRM.
        const sys::SimResults &rrm = results[w][2];
        const sys::SimResults &ada = results[w][3];
        const std::uint64_t rrm_ref =
            rrm.rrmFastRefreshes + rrm.rrmSlowRefreshes;
        const std::uint64_t ada_ref =
            ada.rrmFastRefreshes + ada.rrmSlowRefreshes;
        if (ada_ref < rrm_ref && ada.aggregateIpc >= rrm.aggregateIpc)
            ++adaptive_wins;
    }

    bench::printRule();
    const double n = static_cast<double>(workloads.size());
    std::printf("%-12s %-14s %10s\n", "geomean", "", "IPC");
    for (std::size_t s = 0; s < n_schemes; ++s) {
        std::printf("%-12s %-14s %10.3f\n", "",
                    schemes[s].name().c_str(),
                    std::pow(ipc_geo[s], 1.0 / n));
    }
    std::printf("Adaptive-RRM beats RRM (fewer selective refreshes at "
                "equal-or-better IPC) on %zu of %zu workloads.\n",
                adaptive_wins, workloads.size());
    return 0;
}
