/**
 * @file
 * User-facing observability knobs, embedded in SystemConfig. Each
 * facility is on exactly when its output file is named, so untouched
 * configurations behave (and cost) exactly as before.
 */

#ifndef RRM_OBS_OBS_CONFIG_HH
#define RRM_OBS_OBS_CONFIG_HH

#include <string>

namespace rrm::obs
{

/** Observability configuration of one simulation run. */
struct ObsOptions
{
    /**
     * JSONL trace file; with perfettoFile also empty, tracing is off
     * entirely (the trace macros then cost one pointer test).
     */
    std::string traceFile;

    /**
     * Chrome-trace / Perfetto JSON timeline (loadable in
     * ui.perfetto.dev); may be combined with traceFile — both then
     * receive the same event stream through a tee.
     */
    std::string perfettoFile;

    /**
     * Sampled time series as CSV, one row per policy epoch (the RRM
     * decay tick, or 0.125 s / timeScale for static schemes).
     */
    std::string sampleCsvFile;

    /**
     * Full run record (metadata + config + results + stats tree)
     * written at the end of System::run().
     */
    std::string runRecordFile;

    /**
     * Hot-path telemetry (event histograms, queue occupancy; see
     * obs/telemetry.hh) as JSON. The telemetry stats tree is separate
     * from the run record, so seeded run records stay byte-identical
     * either way.
     */
    std::string telemetryJsonFile;
};

} // namespace rrm::obs

#endif // RRM_OBS_OBS_CONFIG_HH
