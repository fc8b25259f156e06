/**
 * @file
 * Reproduces paper Figures 2-4 (Section III-A motivation): the five
 * Static-N-SETs schemes across all Table VII workloads.
 *
 *  - Figure 2: raw IPC per workload and scheme.
 *  - Figure 3: IPC normalized to Static-7-SETs.
 *  - Figure 4: wear (block writes/s) split into demand writes vs
 *    global refresh, normalized to Static-7's total.
 *
 * Paper shape targets: fewer SETs -> higher IPC (Static-3 geomean
 * +15.6% over Static-4, up to +90.1% on libquantum vs Static-4);
 * refresh wear dominant for Static-3/-4 (Static-3 lifetime 0.317
 * years from refresh alone). Like the paper, global refresh is not
 * timed — only counted — so Static-3/-4 IPC is optimistic.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace rrm;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_fig2_3_4_static", bench::PlanFlags);
    const auto workloads = opts.selectedWorkloads();
    const auto schemes = sys::staticSchemes();

    const auto results = bench::runMatrix(workloads, schemes, opts);

    // ---- Figure 2: raw IPC ----
    bench::printTitle("Figure 2: IPC of static write schemes");
    std::printf("%-12s", "workload");
    for (const auto &s : schemes)
        std::printf(" %13s", s.name().c_str());
    std::printf("\n");
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::printf("%-12s", workloads[w].name.c_str());
        for (std::size_t s = 0; s < schemes.size(); ++s)
            std::printf(" %13.3f", results[w][s].aggregateIpc);
        std::printf("\n");
    }

    // ---- Figure 3: IPC normalized to Static-7 ----
    bench::printTitle(
        "Figure 3: IPC normalized to Static-7-SETs (paper: fewer SETs "
        "-> faster)");
    std::printf("%-12s", "workload");
    for (const auto &s : schemes)
        std::printf(" %13s", s.name().c_str());
    std::printf("\n");
    std::vector<double> geo(schemes.size(), 1.0);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
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
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        std::printf(" %13.3f",
                    std::pow(geo[s], 1.0 / workloads.size()));
    }
    std::printf("\n");
    const double s3 = std::pow(geo[4], 1.0 / workloads.size());
    const double s4 = std::pow(geo[3], 1.0 / workloads.size());
    std::printf("Static-3 over Static-4 geomean: +%.1f%% "
                "(paper: +15.6%%, up to +90.1%% on libquantum)\n",
                100.0 * (s3 / s4 - 1.0));

    // ---- Figure 4: wear split, normalized to Static-7 total ----
    bench::printTitle(
        "Figure 4: normalized wear from writes and refreshes (static "
        "schemes)");
    std::printf("%-12s %-14s %12s %12s %12s\n", "workload", "scheme",
                "write", "refresh", "total");
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const double base = results[w][0].totalWearRate();
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            const auto &r = results[w][s];
            std::printf("%-12s %-14s %12.3f %12.3f %12.3f\n",
                        s == 0 ? workloads[w].name.c_str() : "",
                        r.scheme.c_str(), r.demandWriteRate / base,
                        r.globalRefreshRate / base,
                        r.totalWearRate() / base);
        }
    }
    bench::printRule();
    std::printf(
        "paper shape: refresh wear becomes dominant for Static-4 and\n"
        "overwhelming for Static-3 (whole-array refresh every 2.01 s);\n"
        "Static-7/-6 wear is essentially all demand writes.\n");
    return 0;
}
