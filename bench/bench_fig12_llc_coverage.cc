/**
 * @file
 * Reproduces paper Figure 12 and Table VIII (Section VI-E): RRM LLC
 * coverage rate sweep. Coverage is varied through the set count at
 * fixed 24-way associativity: 128/256/512/1024 sets give 2x/4x/8x/16x
 * the 6 MB LLC's coverage at 48/96/192/384 KB of storage.
 *
 * Paper shape: 2x coverage performs much worse than 4x (entry
 * contention evicts would-be-hot regions); 8x/16x add nothing over
 * 4x, making the default 4x (1.56% of LLC storage) the sweet spot.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"

using namespace rrm;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_fig12_llc_coverage", bench::PlanFlags);
    const auto workloads = opts.selectedWorkloads();
    const unsigned set_counts[] = {128, 256, 512, 1024};
    const char *labels[] = {"2x", "4x", "8x", "16x"};

    // ---- Table VIII: storage overheads ----
    bench::printTitle(
        "Table VIII: RRM configuration for different LLC coverage");
    std::printf("%-10s %-22s %12s %14s\n", "coverage", "configuration",
                "storage", "% of LLC");
    for (std::size_t i = 0; i < 4; ++i) {
        monitor::RrmConfig cfg;
        cfg.numSets = set_counts[i];
        std::printf("%-10s %4u sets, %2u ways %14llu KB %13.2f%%\n",
                    labels[i], cfg.numSets, cfg.assoc,
                    static_cast<unsigned long long>(
                        cfg.storageBytes() / 1024),
                    100.0 * static_cast<double>(cfg.storageBytes()) /
                        static_cast<double>(6_MiB));
    }
    std::printf("paper: 48 KB/0.78%%, 96 KB/1.56%%, 192 KB/3.12%%, "
                "384 KB/6.25%%.\n");

    // ---- Figure 12: one plan over the coverage sweep ----
    bench::PlanBuilder plan(opts);
    for (const auto &workload : workloads) {
        for (std::size_t i = 0; i < 4; ++i) {
            const unsigned sets = set_counts[i];
            plan.run(workload, sys::Scheme::rrmScheme())
                .tag(workload.name + ".rrm-cov" + labels[i])
                .with([sets](sys::SystemConfig &cfg) {
                    cfg.rrm.numSets = sets;
                });
        }
    }
    const run::RunReport report = plan.execute();

    bench::printTitle(
        "Figure 12: sensitivity to the LLC coverage rate of RRM");
    std::printf("%-12s %10s %14s %14s %12s\n", "workload", "coverage",
                "IPC", "lifetime (y)", "fast frac");
    std::vector<double> ipc_geo(4, 1.0), life_geo(4, 1.0);
    for (const auto &workload : workloads) {
        for (std::size_t i = 0; i < 4; ++i) {
            const auto &r =
                report.find(workload.name + ".rrm-cov" + labels[i])
                    ->results;
            ipc_geo[i] *= r.aggregateIpc;
            life_geo[i] *= r.lifetimeYears;
            std::printf("%-12s %10s %14.3f %14.3f %11.1f%%\n",
                        i == 0 ? workload.name.c_str() : "",
                        labels[i], r.aggregateIpc, r.lifetimeYears,
                        100.0 * r.fastWriteFraction());
        }
    }
    bench::printRule();
    const double n = static_cast<double>(workloads.size());
    for (std::size_t i = 0; i < 4; ++i) {
        std::printf("geomean %-6s IPC %.3f, lifetime %.3f y\n",
                    labels[i], std::pow(ipc_geo[i], 1.0 / n),
                    std::pow(life_geo[i], 1.0 / n));
    }
    std::printf(
        "paper shape: 2x notably worse than 4x; 4x ~= 8x ~= 16x.\n");
    return 0;
}
