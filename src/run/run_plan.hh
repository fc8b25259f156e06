/**
 * @file
 * RunPlan: an ordered list of fully-resolved simulation runs.
 *
 * A plan is the unit of batch execution: every paper figure is a
 * matrix of independent (workload, scheme) simulations, and a sweep
 * is the same matrix with per-run config variations. Each run carries
 * a stable, plan-unique id (the default matrix id is
 * "<workload>.<scheme>", which is also the naming tag of per-run
 * observability outputs) so results, output files, and failure
 * reports all refer to runs the same way regardless of execution
 * order. The Runner (runner.hh) executes a plan on a worker pool and
 * returns results in plan order.
 */

#ifndef RRM_RUN_RUN_PLAN_HH
#define RRM_RUN_RUN_PLAN_HH

#include <functional>
#include <string>
#include <vector>

#include "system/system.hh"
#include "trace/workload.hh"

namespace rrm::run
{

/**
 * Called on the worker thread right after a run finishes, with the
 * still-live System (for post-run component inspection, e.g. the
 * Table III region profiler) and its results. The hook must not
 * touch state shared with other runs without its own synchronization;
 * a thrown exception marks the run failed.
 */
using PostRunHook = std::function<void(const sys::System &,
                                       const sys::SimResults &)>;

/** One fully-resolved run of a plan. */
struct RunSpec
{
    /** Stable plan-unique id, e.g. "GemsFDTD.RRM". */
    std::string id;

    sys::SystemConfig config;

    PostRunHook postRun;
};

/** Ordered list of runs; the execution contract of one batch. */
class RunPlan
{
  public:
    /**
     * Append a run. An empty id defaults to "<workload>.<scheme>".
     * Returns the spec for further adjustment (hooks, config edits).
     */
    RunSpec &add(sys::SystemConfig config, std::string id = "");

    /**
     * Build the standard figure matrix: every workload under every
     * scheme, in (workload-major) order, ids "<workload>.<scheme>".
     * `configFor` produces the fully-resolved config of one cell.
     */
    static RunPlan matrix(
        const std::vector<trace::Workload> &workloads,
        const std::vector<sys::Scheme> &schemes,
        const std::function<sys::SystemConfig(
            const trace::Workload &, const sys::Scheme &)> &configFor);

    /**
     * Validate the whole plan, aggregating every problem into one
     * FatalError: each run's SystemConfig::validate() failures
     * (prefixed with the run id), duplicate run ids, and observability
     * output files claimed by more than one run (which would silently
     * overwrite each other — and race under parallel execution).
     */
    void validate() const;

    /** @{ Plan contents, in execution-independent plan order. */
    std::size_t size() const { return runs_.size(); }
    bool empty() const { return runs_.empty(); }
    const RunSpec &operator[](std::size_t i) const { return runs_.at(i); }
    const std::vector<RunSpec> &runs() const { return runs_; }
    /** @} */

  private:
    std::vector<RunSpec> runs_;
};

} // namespace rrm::run

#endif // RRM_RUN_RUN_PLAN_HH
