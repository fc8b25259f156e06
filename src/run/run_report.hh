/**
 * @file
 * RunReport: the aggregated outcome of executing a RunPlan.
 *
 * Results appear in plan order regardless of how many workers
 * executed the plan or how their runs interleaved, so everything
 * derived from a report (tables, bench JSON, geomeans) is
 * byte-identical across --jobs settings. Wall-clock observations
 * (per-run seconds, the slowest-run watermark) are the only
 * nondeterministic fields and stay out of the deterministic payloads.
 */

#ifndef RRM_RUN_RUN_REPORT_HH
#define RRM_RUN_RUN_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "system/results.hh"

namespace rrm::run
{

/** Outcome of one run of the plan. */
enum class RunStatus : std::uint8_t
{
    Ok = 0,
    Failed,    ///< the run threw; see RunResult::error
    Cancelled, ///< never started: --fail-fast after an earlier failure
    TimedOut,  ///< exceeded its wall-clock timeout

    /**
     * Stopped by a graceful-stop request (SIGINT/SIGTERM via
     * common/interrupt.hh). A --resume continues it from its newest
     * epoch checkpoint when checkpointing was configured.
     */
    Interrupted,
};

/**
 * Stable lower-case status name
 * ("ok", "failed", "cancelled", "timed-out", "interrupted").
 */
const char *runStatusName(RunStatus status);

/** One run's outcome, in the plan-order slot of its spec. */
struct RunResult
{
    std::string id;
    RunStatus status = RunStatus::Cancelled;

    /** Failure message ("" unless status is Failed / TimedOut). */
    std::string error;

    /** Valid only when status == Ok. */
    sys::SimResults results;

    /** Host wall-clock seconds of this run (nondeterministic). */
    double wallSeconds = 0.0;

    /** Simulator events the run executed (0 unless Ok). */
    std::uint64_t eventsExecuted = 0;

    /**
     * Host throughput: eventsExecuted / wallSeconds, 0 when the
     * clock is pinned via SOURCE_DATE_EPOCH (nondeterministic).
     */
    double eventsPerSecond = 0.0;
};

/** Aggregated outcome of one executed plan. */
struct RunReport
{
    /** One entry per plan run, in plan order. */
    std::vector<RunResult> runs;

    /** Worker threads the plan was executed with. */
    unsigned jobs = 1;

    /** Host wall-clock seconds of the whole plan (nondeterministic). */
    double wallSeconds = 0.0;

    /** @{ Outcome tallies. */
    std::size_t completedCount() const;
    std::size_t failedCount() const;
    std::size_t cancelledCount() const;
    std::size_t timedOutCount() const;
    std::size_t interruptedCount() const;
    bool allOk() const { return completedCount() == runs.size(); }
    /** @} */

    /** Plan-order index of the slowest completed run (npos if none). */
    std::size_t slowestRunIndex() const;

    /** Result by run id (nullptr if the id is not in the plan). */
    const RunResult *find(const std::string &id) const;

    /**
     * Results of every Ok run, in plan order — the common input shape
     * of table formatting. fatal() if any run is not Ok (callers
     * decide failure policy first; see allOk()).
     */
    std::vector<sys::SimResults> okResults() const;

    /** One-line failure summary, e.g. for fatal() ("" if allOk). */
    std::string failureSummary() const;
};

} // namespace rrm::run

#endif // RRM_RUN_RUN_REPORT_HH
