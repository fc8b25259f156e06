/**
 * @file
 * Runner: executes a RunPlan on a pool of worker threads.
 *
 * Determinism contract: every run owns a fully isolated System,
 * EventQueue, and RNG seeded from its own config, so a run's
 * SimResults and observability outputs depend only on its
 * SystemConfig — never on sibling runs or the worker count. The
 * report lists results in plan order; with distinct per-run output
 * files (enforced by RunPlan::validate) the batch output is
 * byte-identical for any --jobs value. Only wall-clock fields
 * (RunResult::wallSeconds, the report profile) vary.
 *
 * Shared process-global state the workers touch is thread-safe by
 * construction: the log sink and warn_once registry are mutexed, the
 * check-violation counters are atomic, and the static
 * workload/write-mode tables are immutable after their (thread-safe)
 * first-use initialization. See DESIGN.md section 9.
 */

#ifndef RRM_RUN_RUNNER_HH
#define RRM_RUN_RUNNER_HH

#include <functional>

#include "run/run_plan.hh"
#include "run/run_report.hh"

namespace rrm::run
{

/** Progress snapshot passed to RunnerOptions::onProgress. */
struct RunProgress
{
    /** Plan-order index of the run that just finished. */
    std::size_t index = 0;

    /** Status it finished with. */
    RunStatus status = RunStatus::Ok;

    /** Runs finished (ok or failed) so far, including this one. */
    std::size_t finished = 0;

    std::size_t total = 0;

    /** Wall seconds of this run. */
    double runSeconds = 0.0;

    /** Simulator events this run executed (0 unless Ok). */
    std::uint64_t eventsExecuted = 0;

    /**
     * Host throughput of this run: eventsExecuted / runSeconds.
     * 0 when the clock is pinned (SOURCE_DATE_EPOCH) or the run
     * was not Ok. Nondeterministic.
     */
    double eventsPerSecond = 0.0;

    /**
     * Naive remaining-time estimate: mean completed-run seconds x
     * remaining runs / workers. 0 once the plan is done or while
     * the clock is pinned. Nondeterministic.
     */
    double etaSeconds = 0.0;
};

/** Execution policy of one Runner. */
struct RunnerOptions
{
    /**
     * Worker threads. 0 selects the hardware concurrency; 1 runs the
     * plan inline on the calling thread (the historical serial
     * behavior — no threads are created).
     */
    unsigned jobs = 0;

    /**
     * Stop dispatching after the first failed run: queued runs are
     * reported Cancelled instead of executed. Runs already in flight
     * on other workers complete normally.
     */
    bool failFast = false;

    /**
     * Per-run wall-clock budget in seconds, applied to every run whose
     * config does not already set SystemConfig::wallTimeoutSeconds.
     * A run over budget raises SimTimeoutError between event batches
     * and is recorded TimedOut without stalling the rest of the plan.
     * 0 disables the runner-level timeout.
     */
    double timeoutSeconds = 0.0;

    /**
     * Called after every run finishes, serialized under the runner's
     * progress lock (callbacks never overlap). Runs may finish in any
     * order under jobs > 1.
     */
    std::function<void(const RunProgress &)> onProgress;
};

/** Executes RunPlans; stateless between execute() calls. */
class Runner
{
  public:
    explicit Runner(RunnerOptions options = {});

    /** Effective worker count for a plan of `plan_size` runs. */
    unsigned effectiveJobs(std::size_t plan_size) const;

    /**
     * Validate and execute the plan; returns the plan-order report.
     * Run failures (FatalError, CheckError, any std::exception) are
     * captured per run, never thrown; plan-level validation failures
     * throw FatalError before anything executes.
     */
    RunReport execute(const RunPlan &plan) const;

    const RunnerOptions &options() const { return options_; }

  private:
    RunnerOptions options_;
};

} // namespace rrm::run

#endif // RRM_RUN_RUNNER_HH
