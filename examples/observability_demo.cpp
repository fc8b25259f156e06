/**
 * @file
 * Observability tour: run one RRM workload with every output of the
 * obs layer enabled at once —
 *
 *  - a JSONL trace of RRM lifecycle / refresh / queue events,
 *  - a Chrome-trace/Perfetto timeline of the same stream (channel
 *    busy spans, queue counters, decay epochs, lifecycle instants)
 *    to drop into ui.perfetto.dev,
 *  - a CSV time series sampled every RRM decay epoch (0.125 scaled
 *    seconds): hot entries, write-mode mix, queue occupancies,
 *  - hot-path telemetry (event-latency/queue-depth histograms) as a
 *    separate JSON stats tree,
 *  - the full run record (metadata + config + results + stats +
 *    trace counts) as pretty-printed JSON,
 *
 * then print a short digest of each file so the demo is useful even
 * without opening them.
 *
 * Usage: observability_demo [workload] [window_ms] [outdir]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "system/system.hh"

using namespace rrm;

namespace
{

std::uint64_t
countLines(const std::string &path)
{
    std::ifstream is(path);
    std::uint64_t n = 0;
    std::string line;
    while (std::getline(is, line))
        ++n;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "GemsFDTD";
    const double window_ms = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::string outdir = argc > 3 ? argv[3] : ".";

    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName(name);
    cfg.scheme = sys::Scheme::rrmScheme();
    cfg.windowSeconds = window_ms / 1000.0;

    const std::string stem = outdir + "/obs_demo";
    cfg.obs.traceFile = stem + ".trace.jsonl";
    cfg.obs.perfettoFile = stem + ".perfetto.json";
    cfg.obs.sampleCsvFile = stem + ".samples.csv";
    cfg.obs.runRecordFile = stem + ".run.json";
    cfg.obs.telemetryJsonFile = stem + ".telemetry.json";

    std::printf("running %s under RRM for %.1f ms with tracing, "
                "sampling, and telemetry on...\n\n",
                cfg.workload.name.c_str(), window_ms);

    sys::System system(std::move(cfg));
    const sys::SimResults r = system.run();

    std::printf("results: IPC %.3f, fast-write fraction %.1f%%, "
                "lifetime %.2f years\n\n",
                r.aggregateIpc, 100.0 * r.fastWriteFraction(),
                r.lifetimeYears);

    const obs::TraceSink *sink = system.traceSink();
    std::printf("%s: %llu trace events\n",
                (stem + ".trace.jsonl").c_str(),
                (unsigned long long)(sink ? sink->recorded() : 0));

    std::printf("%s: %llu lines of Perfetto timeline "
                "(open in ui.perfetto.dev)\n",
                (stem + ".perfetto.json").c_str(),
                (unsigned long long)countLines(stem +
                                               ".perfetto.json"));

    std::printf("%s: %llu lines of telemetry histograms\n",
                (stem + ".telemetry.json").c_str(),
                (unsigned long long)countLines(stem +
                                               ".telemetry.json"));

    const obs::Sampler *sampler = system.sampler();
    std::printf("%s: %zu samples x %zu columns, every %.3f scaled ms\n",
                (stem + ".samples.csv").c_str(),
                sampler ? sampler->rows().size() : 0,
                sampler ? sampler->columnNames().size() : 0,
                sampler ? ticksToSeconds(sampler->interval()) * 1e3
                        : 0.0);

    std::printf("%s: %llu lines of run record\n",
                (stem + ".run.json").c_str(),
                (unsigned long long)countLines(stem + ".run.json"));
    return 0;
}
