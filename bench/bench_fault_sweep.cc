/**
 * @file
 * Fault-injection sweep: (scheme x transient-fault-rate) matrix with
 * retention tracking enabled everywhere.
 *
 * Expected shape: the RRM keeps retention violations at zero because
 * every short-retention block it creates stays on the selective
 * refresh schedule, while Static-3-SETs accumulates violations as
 * soon as its blanket fast writes outrun the global refresh
 * assumption encoded in the retention deadline. Transient write
 * faults are absorbed by write-verify retries at every rate the
 * sweep covers; the interesting signal is the retry count.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "obs/run_record.hh"

using namespace rrm;

namespace
{

struct RatePoint
{
    double rate;
    const char *tag; ///< stable id fragment ("fr<tag>")
};

std::string
runId(const trace::Workload &w, const sys::Scheme &s,
      const RatePoint &p)
{
    return w.name + "." + s.name() + ".fr" + p.tag;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::BenchOptions::parse(
        argc, argv, "bench_fault_sweep", bench::RunFlags | bench::JsonOutFlag);
    const auto workloads = opts.selectedWorkloads();

    const std::vector<sys::Scheme> schemes = {
        sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
        sys::Scheme::staticScheme(pcm::WriteMode::Sets3),
        sys::Scheme::rrmScheme(),
    };
    const std::vector<RatePoint> rates = {
        {0.0, "0"},
        {1e-5, "1e-5"},
        {1e-4, "1e-4"},
        {1e-3, "1e-3"},
    };

    bench::PlanBuilder plan(opts);
    for (const auto &workload : workloads) {
        for (const auto &scheme : schemes) {
            for (const auto &point : rates) {
                plan.run(workload, scheme)
                    .tag(runId(workload, scheme, point))
                    .with([rate = point.rate](sys::SystemConfig &cfg) {
                        cfg.fault.retentionTracking = true;
                        cfg.fault.transientWriteFailureRate = rate;
                    });
            }
        }
    }
    const run::RunReport report = plan.execute();

    bench::printTitle(
        "Fault sweep: retention violations and write-retry recovery");
    std::printf("%-12s %-16s %10s %12s %12s %12s %12s\n", "workload",
                "scheme", "rate", "violations", "retries",
                "unrecovered", "IPC");
    for (const auto &workload : workloads) {
        bool first = true;
        for (const auto &scheme : schemes) {
            for (const auto &point : rates) {
                const auto &r =
                    report.find(runId(workload, scheme, point))
                        ->results;
                std::printf(
                    "%-12s %-16s %10s %12llu %12llu %12llu %12.3f\n",
                    first ? workload.name.c_str() : "",
                    scheme.name().c_str(), point.tag,
                    static_cast<unsigned long long>(
                        r.fault.retentionViolations),
                    static_cast<unsigned long long>(
                        r.fault.writeRetries),
                    static_cast<unsigned long long>(
                        r.fault.writesUnrecovered),
                    r.aggregateIpc);
                first = false;
            }
        }
    }
    bench::printRule();
    std::printf(
        "expected: RRM rows keep zero retention violations at every "
        "fault rate;\nStatic-3-SETs rows accumulate violations, and "
        "retries track the injected rate.\n");

    const std::string path =
        opts.jsonOut.empty() ? "BENCH_fault.json" : opts.jsonOut;
    AtomicFile file(path);
    std::ostream &os = file.stream();
    obs::JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("schemaVersion", bench::benchReportSchemaVersion);
    json.field("bench", "fault_sweep");
    json.key("metadata");
    obs::writeRunMetadata(json, obs::currentRunMetadata());
    json.key("options");
    json.beginObject();
    json.field("windowSeconds", opts.windowSeconds);
    json.field("timeScale", opts.timeScale);
    json.field("warmupFraction", opts.warmupFraction);
    json.field("seed", opts.seed);
    json.endObject();
    json.key("faultRates");
    json.beginArray();
    for (const auto &point : rates)
        json.value(point.rate);
    json.endArray();
    json.key("schemes");
    json.beginArray();
    for (const auto &s : schemes)
        json.value(s.name());
    json.endArray();
    json.key("runs");
    json.beginArray();
    for (const auto &workload : workloads) {
        for (const auto &scheme : schemes) {
            for (const auto &point : rates) {
                const std::string id = runId(workload, scheme, point);
                json.beginObject();
                json.field("id", id);
                json.field("faultRate", point.rate);
                json.key("results");
                report.find(id)->results.toJson(json);
                json.endObject();
            }
        }
    }
    json.endArray();
    json.endObject();
    os << '\n';
    file.commit();
    std::fprintf(stderr, "bench report written to %s\n", path.c_str());
    return 0;
}
