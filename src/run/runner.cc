/**
 * @file
 * Runner implementation: worker pool, dispatch, failure capture.
 */

#include "runner.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/interrupt.hh"
#include "common/logging.hh"
#include "obs/run_record.hh"
#include "system/system.hh"

namespace rrm::run
{

namespace
{

/**
 * Seconds elapsed since `start` (an obs::monotonicSeconds() reading).
 * Under SOURCE_DATE_EPOCH both readings are 0, so every wall-clock
 * field collapses to 0 and reports are byte-reproducible.
 */
double
secondsSince(double start)
{
    return obs::monotonicSeconds() - start;
}

/** Shared execution state of one plan; workers hold a reference. */
struct Execution
{
    Execution(const RunPlan &p, const RunnerOptions &o, RunReport &r)
        : plan(p), options(o), report(r)
    {}

    const RunPlan &plan;
    const RunnerOptions &options;
    RunReport &report;

    /** Next plan index to dispatch. */
    std::atomic<std::size_t> next{0};

    /** Set by the first failure when failFast is on. */
    std::atomic<bool> aborted{false};

    /** Serializes progress accounting and the onProgress callback. */
    std::mutex progressMutex;
    std::size_t finished = 0;          // guarded by progressMutex
    double finishedSeconds = 0.0;      // guarded by progressMutex
};

/** Execute plan run `index`, filling its plan-order report slot. */
void
executeOne(Execution &ex, std::size_t index)
{
    const RunSpec &spec = ex.plan[index];
    RunResult &slot = ex.report.runs[index];

    // A graceful-stop request between dispatch and start leaves the
    // slot Cancelled, exactly like a run that was never dispatched.
    if (interruptRequested())
        return;
    const double start = obs::monotonicSeconds();

    sys::SystemConfig config = spec.config;
    if (config.wallTimeoutSeconds == 0.0)
        config.wallTimeoutSeconds = ex.options.timeoutSeconds;
    try {
        sys::System system(std::move(config));
        slot.results = system.run();
        if (spec.postRun)
            spec.postRun(system, slot.results);
        slot.status = RunStatus::Ok;
    } catch (const sys::SimInterruptedError &e) {
        slot.status = RunStatus::Interrupted;
        slot.error = e.what();
    } catch (const sys::SimTimeoutError &e) {
        slot.status = RunStatus::TimedOut;
        slot.error = e.what();
    } catch (const std::exception &e) {
        slot.status = RunStatus::Failed;
        slot.error = e.what();
    }
    if (slot.status != RunStatus::Ok && ex.options.failFast)
        ex.aborted.store(true, std::memory_order_relaxed);
    slot.wallSeconds = secondsSince(start);
    if (slot.status == RunStatus::Ok) {
        slot.eventsExecuted = slot.results.eventsExecuted;
        if (slot.wallSeconds > 0.0) {
            slot.eventsPerSecond =
                static_cast<double>(slot.eventsExecuted) /
                slot.wallSeconds;
        }
    }

    RunProgress progress;
    progress.index = index;
    progress.status = slot.status;
    progress.runSeconds = slot.wallSeconds;
    progress.total = ex.plan.size();
    progress.eventsExecuted = slot.eventsExecuted;
    progress.eventsPerSecond = slot.eventsPerSecond;
    {
        const std::lock_guard<std::mutex> lock(ex.progressMutex);
        progress.finished = ++ex.finished;
        ex.finishedSeconds += slot.wallSeconds;
        const std::size_t remaining = progress.total - progress.finished;
        if (remaining > 0 && ex.finishedSeconds > 0.0) {
            const double mean = ex.finishedSeconds /
                                static_cast<double>(progress.finished);
            progress.etaSeconds =
                mean * static_cast<double>(remaining) /
                static_cast<double>(ex.report.jobs ? ex.report.jobs : 1);
        }
        if (ex.options.onProgress)
            ex.options.onProgress(progress);
    }
}

/** Worker loop: pull plan indices until the plan (or dispatch) ends. */
void
workerLoop(Execution &ex)
{
    while (true) {
        // A stop request drains the pool exactly like --fail-fast:
        // dispatch ends, in-flight runs finish (each recording
        // Interrupted through the serialized progress path), queued
        // runs stay Cancelled, and the report is still complete.
        if (ex.aborted.load(std::memory_order_relaxed) ||
            interruptRequested()) {
            return;
        }
        const std::size_t index =
            ex.next.fetch_add(1, std::memory_order_relaxed);
        if (index >= ex.plan.size())
            return;
        executeOne(ex, index);
    }
}

} // namespace

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {}

unsigned
Runner::effectiveJobs(std::size_t plan_size) const
{
    unsigned jobs = options_.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    if (plan_size > 0 &&
        jobs > plan_size) {
        jobs = static_cast<unsigned>(plan_size);
    }
    return jobs < 1 ? 1 : jobs;
}

RunReport
Runner::execute(const RunPlan &plan) const
{
    plan.validate();

    RunReport report;
    report.runs.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        report.runs[i].id = plan[i].id;
        report.runs[i].status = RunStatus::Cancelled;
    }
    report.jobs = effectiveJobs(plan.size());

    const double start = obs::monotonicSeconds();
    Execution ex{plan, options_, report};
    if (report.jobs <= 1) {
        // Serial path: no threads, identical to the historical loop.
        workerLoop(ex);
    } else {
        std::vector<std::thread> workers;
        workers.reserve(report.jobs);
        for (unsigned w = 0; w < report.jobs; ++w)
            workers.emplace_back([&ex] { workerLoop(ex); });
        for (auto &t : workers)
            t.join();
    }
    report.wallSeconds = secondsSince(start);
    return report;
}

} // namespace rrm::run
