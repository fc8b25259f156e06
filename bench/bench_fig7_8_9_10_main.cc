/**
 * @file
 * Reproduces the paper's headline evaluation (Section VI-A to VI-C)
 * from one 6-scheme x 11-workload run matrix:
 *
 *  - Figure 7: IPC of RRM vs the static schemes (normalized to
 *    Static-7). Paper: RRM geomean +62.0% over Static-7 and ~10%
 *    below Static-3 (whose refresh cost is not timed, so its real
 *    performance is lower).
 *  - Figure 8: memory lifetime in years. Paper geomeans: Static-7
 *    10.6, RRM 6.4, Static-3 0.3.
 *  - Figure 9: wear split into demand writes / RRM refresh / global
 *    refresh. Paper: both RRM refresh flavours are trivial next to
 *    demand wear; refresh dominates Static-3/-4.
 *  - Figure 10: memory power by cause. Paper: refresh energy
 *    dominates Static-3/-4; RRM total is moderate (+32.8% over
 *    Static-7, driven by running faster).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace rrm;

int
benchMain(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_fig7_8_9_10_main",
        bench::RunFlags | bench::JsonOutFlag);
    const auto workloads = opts.selectedWorkloads();
    const auto schemes = sys::allPaperSchemes(); // Static-7..3, RRM

    const auto results = bench::runMatrix(workloads, schemes, opts);
    const std::size_t n = workloads.size();
    const std::size_t rrm_idx = schemes.size() - 1;

    // Machine-readable copy of the whole matrix (--json-out overrides).
    const std::string json_out =
        opts.jsonOut.empty() ? "BENCH_fig7.json" : opts.jsonOut;
    bench::writeBenchReport(json_out, "fig7_8_9_10", opts, workloads,
                            schemes, results);
    std::fprintf(stderr, "bench report written to %s\n",
                 json_out.c_str());

    // ---- Figure 7 ----
    bench::printTitle(
        "Figure 7: IPC normalized to Static-7-SETs (RRM vs statics)");
    std::printf("%-12s", "workload");
    for (const auto &s : schemes)
        std::printf(" %13s", s.name().c_str());
    std::printf("\n");
    std::vector<double> geo(schemes.size(), 1.0);
    for (std::size_t w = 0; w < n; ++w) {
        std::printf("%-12s", workloads[w].name.c_str());
        const double base = results[w][0].aggregateIpc;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const double norm = results[w][s].aggregateIpc / base;
            geo[s] *= norm;
            std::printf(" %13.3f", norm);
        }
        std::printf("\n");
    }
    std::printf("%-12s", "geomean");
    for (std::size_t s = 0; s < schemes.size(); ++s)
        std::printf(" %13.3f", std::pow(geo[s], 1.0 / n));
    std::printf("\n");
    const double rrm_gain = std::pow(geo[rrm_idx], 1.0 / n) - 1.0;
    const double s3_norm = std::pow(geo[4], 1.0 / n);
    std::printf(
        "RRM over Static-7: +%.1f%% (paper: +62.0%%); RRM vs "
        "Static-3: %.1f%% below (paper: 10.0%% below)\n",
        100.0 * rrm_gain,
        100.0 * (1.0 - std::pow(geo[rrm_idx], 1.0 / n) / s3_norm));

    // ---- Figure 8 ----
    bench::printTitle("Figure 8: memory lifetime (years)");
    std::printf("%-12s", "workload");
    for (const auto &s : schemes)
        std::printf(" %13s", s.name().c_str());
    std::printf("\n");
    std::vector<double> life_geo(schemes.size(), 1.0);
    for (std::size_t w = 0; w < n; ++w) {
        std::printf("%-12s", workloads[w].name.c_str());
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            life_geo[s] *= results[w][s].lifetimeYears;
            std::printf(" %13.3f", results[w][s].lifetimeYears);
        }
        std::printf("\n");
    }
    std::printf("%-12s", "geomean");
    for (std::size_t s = 0; s < schemes.size(); ++s)
        std::printf(" %13.3f", std::pow(life_geo[s], 1.0 / n));
    std::printf("\n");
    std::printf(
        "paper geomeans: Static-7 10.6 y, RRM 6.4 y, Static-3 0.3 y; "
        "this testbed's cores sustain a higher absolute write rate,\n"
        "which scales all demand-limited lifetimes down uniformly "
        "(EXPERIMENTS.md); Static-3 stays refresh-bound at ~0.3 y.\n");

    // ---- Figure 9 ----
    bench::printTitle(
        "Figure 9: wear distribution (block writes per second)");
    std::printf("%-12s %-14s %14s %14s %14s %10s\n", "workload",
                "scheme", "demand", "rrm refresh", "global rf",
                "rf share");
    for (std::size_t w = 0; w < n; ++w) {
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const auto &r = results[w][s];
            const double total = r.totalWearRate();
            std::printf(
                "%-12s %-14s %14.4g %14.4g %14.4g %9.1f%%\n",
                s == 0 ? workloads[w].name.c_str() : "",
                r.scheme.c_str(), r.demandWriteRate, r.rrmRefreshRate,
                r.globalRefreshRate,
                100.0 * (r.rrmRefreshRate + r.globalRefreshRate) /
                    total);
        }
    }
    std::printf(
        "paper shape: refresh wear dominates Static-3/-4; for RRM "
        "both refresh kinds are a small fraction of demand wear.\n");

    // ---- Figure 10 ----
    bench::printTitle("Figure 10: memory power by cause (W)");
    std::printf("%-12s %-14s %10s %10s %10s %10s %10s %10s\n",
                "workload", "scheme", "read", "write", "rrm rf",
                "global rf", "total", "vs S-7");
    for (std::size_t w = 0; w < n; ++w) {
        const double base = results[w][0].totalPower();
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const auto &r = results[w][s];
            std::printf("%-12s %-14s %10.3f %10.3f %10.3f %10.3f "
                        "%10.3f %9.2fx\n",
                        s == 0 ? workloads[w].name.c_str() : "",
                        r.scheme.c_str(), r.readPower,
                        r.demandWritePower, r.rrmRefreshPower,
                        r.globalRefreshPower, r.totalPower(),
                        r.totalPower() / base);
        }
    }
    double rrm_energy_geo = 1.0;
    for (std::size_t w = 0; w < n; ++w) {
        rrm_energy_geo *= results[w][rrm_idx].totalPower() /
                          results[w][0].totalPower();
    }
    std::printf(
        "RRM total power vs Static-7 (geomean): %.2fx (paper: +32.8%% "
        "energy, mostly from running faster); refresh power dominates "
        "Static-3/-4 as in the paper.\n",
        std::pow(rrm_energy_geo, 1.0 / n));

    // ---- RRM behaviour summary (supporting data) ----
    bench::printTitle("RRM behaviour summary");
    std::printf("%-12s %10s %12s %12s %12s %12s\n", "workload",
                "fast frac", "promotions", "demotions", "fast rf",
                "hot@end");
    for (std::size_t w = 0; w < n; ++w) {
        const auto &r = results[w][rrm_idx];
        std::printf("%-12s %9.1f%% %12llu %12llu %12llu %12llu\n",
                    workloads[w].name.c_str(),
                    100.0 * r.fastWriteFraction(),
                    static_cast<unsigned long long>(r.rrmPromotions),
                    static_cast<unsigned long long>(r.rrmDemotions),
                    static_cast<unsigned long long>(
                        r.rrmFastRefreshes),
                    static_cast<unsigned long long>(
                        r.rrmHotEntriesAtEnd));
    }
    return 0;
}
