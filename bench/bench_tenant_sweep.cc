/**
 * @file
 * Multi-tenant fairness sweep (DESIGN.md section 17): runs tenant
 * mixes under the RRM family and reports per-tenant IPC, weighted
 * speedup, and slowdown-versus-alone.
 *
 * Every (mix, scheme) cell is paired with automatic 1-core *solo*
 * companion runs — one per distinct (benchmark, scheme) — whose IPCs
 * are collected through RunPlan postRun hooks and serve as the
 * slowdown baselines. The default matrix is
 *
 *     {MIX_1, MIX_2, bwaves:6,GemsFDTD:2}    (2 tenants each)
 *   x {RRM, Adaptive-RRM, RRM-QoS}
 *
 * overridable with --mix/--tenants and --schemes. The machine-
 * readable report (BENCH_tenant.json, --json-out overrides) carries
 * the full per-run results plus the fairness records and is
 * byte-identical across --jobs values.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "bench_tenant_report.hh"
#include "common/check.hh"
#include "trace/benchmark.hh"

using namespace rrm;

namespace
{

/** The default 2-tenant evaluation mixes. */
std::vector<trace::Workload>
defaultMixes()
{
    trace::Workload m1 = trace::mix1Workload();
    m1.tenantOf = {0, 0, 1, 1};
    trace::Workload m2 = trace::mix2Workload();
    m2.tenantOf = {0, 0, 1, 1};
    // Asymmetric: a 6-core write-heavy tenant next to a quiet 2-core
    // one — the shape where QoS partitioning should matter. The
    // noisy tenant must leave the quiet one enough throughput for
    // boosted promotions to act on (an all-lbm neighbour starves it
    // of LLC writebacks entirely, and no policy can help then).
    const trace::Workload asym = trace::workloadFromSpec(
        "bwaves:6,GemsFDTD:2", "0,0,0,0,0,0,1,1");
    return {m1, m2, asym};
}

/** Distinct benchmarks across the mixes, first-appearance order. */
std::vector<trace::Benchmark>
distinctBenchmarks(const std::vector<trace::Workload> &mixes)
{
    std::vector<trace::Benchmark> out;
    for (const auto &w : mixes)
        for (const trace::Benchmark b : w.perCore) {
            bool seen = false;
            for (const trace::Benchmark have : out)
                seen = seen || have == b;
            if (!seen)
                out.push_back(b);
        }
    return out;
}

/** The 1-core solo companion workload of one benchmark. */
trace::Workload
soloWorkload(trace::Benchmark b)
{
    trace::Workload w;
    w.name = "solo-" + std::string(trace::benchmarkProfile(b).name);
    w.perCore = {b};
    return w;
}

} // namespace

int
benchMain(int argc, char **argv)
{
    const bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_tenant_sweep",
        bench::RunFlags | bench::SchemesFlag | bench::JsonOutFlag);

    const std::vector<trace::Workload> mixes =
        (opts.mixes.empty() && opts.workloads.empty())
            ? defaultMixes()
            : opts.selectedWorkloads();
    const std::vector<sys::Scheme> schemes = opts.selectedSchemes(
        {sys::Scheme::rrmScheme(), sys::Scheme::adaptiveRrmScheme(),
         sys::Scheme::rrmQosScheme()});
    const std::vector<trace::Benchmark> benchmarks =
        distinctBenchmarks(mixes);

    // One plan: every solo companion first, then the mixed matrix.
    // Solo IPCs land in the table from postRun hooks on the worker
    // threads; mixed results are read from the report afterwards.
    bench::SoloIpcTable solo;
    bench::PlanBuilder plan(opts);
    for (const trace::Benchmark b : benchmarks) {
        const std::string bench_name(trace::benchmarkProfile(b).name);
        for (const sys::Scheme &scheme : schemes) {
            const std::string scheme_name = scheme.name();
            plan.run(soloWorkload(b), scheme)
                .postRun([&solo, bench_name, scheme_name](
                             const sys::System &,
                             const sys::SimResults &r) {
                    solo.record(bench_name, scheme_name,
                                r.aggregateIpc);
                });
        }
    }
    for (const auto &mix : mixes)
        for (const sys::Scheme &scheme : schemes)
            plan.run(mix, scheme);

    const run::RunReport report = plan.execute();

    // Mixed results, [mix][scheme], plus the fairness of each cell.
    std::vector<std::vector<sys::SimResults>> results;
    std::vector<bench::TenantSweepRow> rows;
    for (const auto &mix : mixes) {
        results.emplace_back();
        for (const sys::Scheme &scheme : schemes) {
            const run::RunResult *rr =
                report.find(mix.name + "." + scheme.name());
            RRM_CHECK(rr, "mixed run missing from the report");
            results.back().push_back(rr->results);
            rows.push_back({mix.name, scheme.name(),
                            bench::fairnessOf(mix, rr->results,
                                              scheme.name(), solo)});
        }
    }
    std::vector<sys::SimResults> solo_results;
    for (const trace::Benchmark b : benchmarks)
        for (const sys::Scheme &scheme : schemes) {
            const run::RunResult *rr = report.find(
                soloWorkload(b).name + "." + scheme.name());
            RRM_CHECK(rr, "solo run missing from the report");
            solo_results.push_back(rr->results);
        }

    const std::string json_out =
        opts.jsonOut.empty() ? "BENCH_tenant.json" : opts.jsonOut;
    bench::writeTenantBenchReport(json_out, "tenant_sweep", opts,
                                  mixes, schemes, results,
                                  solo_results, rows);
    std::fprintf(stderr, "bench report written to %s\n",
                 json_out.c_str());

    bench::printFairnessTable(rows);
    return 0;
}
