/**
 * @file
 * Reproduces paper Figure 13 (Section VI-F): Retention Region (entry
 * coverage) size sweep at fixed 4x LLC coverage. Entry sizes 2/4/8/16
 * KB vary the short_retention_vector width (32..256 bits); set count
 * adjusts to hold total coverage at 24 MB.
 *
 * Paper shape: 2 KB entries are notably worse (regions struggle to
 * accumulate hot_threshold dirty writes); 4/8/16 KB are similar, and
 * 4 KB is preferred because it matches the OS page size.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"

using namespace rrm;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_fig13_entry_size", bench::PlanFlags);
    const auto workloads = opts.selectedWorkloads();
    const std::uint64_t sizes[] = {2_KiB, 4_KiB, 8_KiB, 16_KiB};

    const auto idFor = [](const trace::Workload &w, std::uint64_t region) {
        return w.name + ".rrm-entry" + std::to_string(region / 1024) +
               "K";
    };

    bench::PlanBuilder plan(opts);
    for (const auto &workload : workloads) {
        for (std::uint64_t region : sizes) {
            plan.run(workload, sys::Scheme::rrmScheme())
                .tag(idFor(workload, region))
                .with([region](sys::SystemConfig &cfg) {
                    cfg.rrm.regionBytes = region;
                    // Hold 24 MB total coverage: sets scale
                    // inversely with the entry size.
                    cfg.rrm.numSets = static_cast<unsigned>(
                        24_MiB / (region * cfg.rrm.assoc));
                });
        }
    }
    const run::RunReport report = plan.execute();

    bench::printTitle(
        "Figure 13: sensitivity to the entry coverage size of RRM");
    std::printf("%-12s %10s %14s %14s %12s\n", "workload", "entry",
                "IPC", "lifetime (y)", "fast frac");

    std::vector<double> ipc_geo(4, 1.0), life_geo(4, 1.0);
    for (const auto &workload : workloads) {
        for (std::size_t i = 0; i < 4; ++i) {
            const auto &r =
                report.find(idFor(workload, sizes[i]))->results;
            ipc_geo[i] *= r.aggregateIpc;
            life_geo[i] *= r.lifetimeYears;
            std::printf("%-12s %8llu K %14.3f %14.3f %11.1f%%\n",
                        i == 0 ? workload.name.c_str() : "",
                        static_cast<unsigned long long>(sizes[i] / 1024),
                        r.aggregateIpc, r.lifetimeYears,
                        100.0 * r.fastWriteFraction());
        }
    }
    bench::printRule();
    const double n = static_cast<double>(workloads.size());
    for (std::size_t i = 0; i < 4; ++i) {
        std::printf("geomean %2llu KB entries: IPC %.3f, lifetime "
                    "%.3f y\n",
                    static_cast<unsigned long long>(sizes[i] / 1024),
                    std::pow(ipc_geo[i], 1.0 / n),
                    std::pow(life_geo[i], 1.0 / n));
    }
    std::printf(
        "paper shape: 2 KB worse than the rest; 4/8/16 KB similar "
        "(4 KB chosen to match the OS page size).\n");
    return 0;
}
