/**
 * @file
 * Reproduces paper Table III: temporal and spatial write behaviour of
 * GemsFDTD at 4 KB region granularity — the hot/cold imbalance that
 * motivates the RRM. The interval buckets are the paper's, divided by
 * the run's time scale (DESIGN.md section 3).
 *
 * The region profiler lives inside the System, which the runner tears
 * down when a run finishes; a RunSpec postRun hook copies the Table
 * III aggregates into a per-run slot before that happens.
 */

#include <cstdio>

#include "bench_common.hh"
#include "system/region_profiler.hh"

using namespace rrm;

namespace
{

/** Table III aggregates captured from the profiler by a postRun hook. */
struct ProfileCapture
{
    std::vector<sys::RegionWriteProfiler::RegionBucket> buckets;
    std::uint64_t totalRegions = 0;
    std::uint64_t totalWrites = 0;
    std::uint64_t writtenOnce = 0;
    std::uint64_t neverWritten = 0;
    double hot90 = 0.0;
    double hot97 = 0.0;
};

} // namespace

int
benchMain(int argc, char **argv)
{
    bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_table3_write_intervals", bench::RunFlags);
    if (opts.workloads.empty())
        opts.workloads = {"GemsFDTD"};
    const auto workloads = opts.selectedWorkloads();
    const auto s7 = sys::Scheme::staticScheme(pcm::WriteMode::Sets7);

    // One Static-7 profiling run per workload. Each postRun hook owns
    // its own capture slot, so the plan stays safe under --jobs > 1.
    auto captures =
        std::make_shared<std::vector<ProfileCapture>>(workloads.size());
    bench::PlanBuilder plan(opts);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        plan.run(workloads[i], s7)
            .with([](sys::SystemConfig &cfg) {
                cfg.profileRegionWrites = true;
            })
            .postRun([captures, i](const sys::System &system,
                                   const sys::SimResults &) {
                const sys::RegionWriteProfiler *prof =
                    system.regionProfiler();
                ProfileCapture &cap = (*captures)[i];
                cap.buckets = prof->regionsByMeanInterval();
                cap.totalRegions = prof->totalRegions();
                cap.totalWrites = prof->totalWrites();
                cap.writtenOnce = prof->writtenOnceRegions();
                cap.neverWritten = prof->neverWrittenRegions();
                cap.hot90 = prof->hotRegionFraction(0.90);
                cap.hot97 = prof->hotRegionFraction(0.97);
            });
    }
    const run::RunReport report = plan.execute();

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const auto &workload = workloads[i];
        const ProfileCapture &cap = (*captures)[i];
        const sys::SimResults &r =
            report.find(workload.name + "." + s7.name())->results;

        bench::printTitle("Table III: region write behaviour of " +
                          workload.name + " (4 KB regions, Static-7)");

        const char *labels[] = {
            "< 1e6 ns (paper-equiv)", "1e6 ns to 1e7 ns",
            "1e7 ns to 1e8 ns",       "1e8 ns to 1 s",
            "1 s to 2 s",             ">= 2 s",
        };
        const double total_regions =
            static_cast<double>(cap.totalRegions);
        const double total_writes =
            static_cast<double>(cap.totalWrites);

        std::printf("%-24s %10s %9s %12s %9s\n",
                    "avg write interval", "#regions", "%regions",
                    "#writes", "%writes");
        for (std::size_t b = 0; b < cap.buckets.size(); ++b) {
            std::printf("%-24s %10llu %8.2f%% %12llu %8.2f%%\n",
                        labels[b],
                        static_cast<unsigned long long>(
                            cap.buckets[b].regions),
                        100.0 * cap.buckets[b].regions / total_regions,
                        static_cast<unsigned long long>(
                            cap.buckets[b].writes),
                        total_writes ? 100.0 * cap.buckets[b].writes /
                                           total_writes
                                     : 0.0);
        }
        std::printf("%-24s %10llu %8.2f%% %12llu %8.2f%%\n",
                    "written once",
                    static_cast<unsigned long long>(cap.writtenOnce),
                    100.0 * cap.writtenOnce / total_regions,
                    static_cast<unsigned long long>(cap.writtenOnce),
                    total_writes
                        ? 100.0 * cap.writtenOnce / total_writes
                        : 0.0);
        std::printf("%-24s %10llu %8.2f%%\n", "never written",
                    static_cast<unsigned long long>(cap.neverWritten),
                    100.0 * cap.neverWritten / total_regions);
        bench::printRule();
        std::printf(
            "total writes %llu over %.0f ms (x%.0f time scale); "
            "%.2f%% of all regions absorb 90%% of writes; "
            "%.2f%% absorb 97%%.\n"
            "paper (GemsFDTD, 5 s): 1.1%% of regions take 76.6%% of "
            "writes in the 1e6-1e7 ns row; 97.8%% never written;\n"
            "paper conclusion: ~2%% of memory gets ~97%% of writes.\n"
            "(IPC %.3f, MPKI %.2f for this run.)\n",
            static_cast<unsigned long long>(cap.totalWrites),
            r.windowSeconds * 1e3, r.timeScale, 100.0 * cap.hot90,
            100.0 * cap.hot97, r.aggregateIpc, r.mpki);
    }
    return 0;
}
