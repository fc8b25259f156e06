/**
 * @file
 * Shared infrastructure for the reproduction benches: command-line
 * options (a declarative flag table), RunPlan construction over
 * (workload, scheme) matrices, parallel execution through
 * run::Runner, and table formatting. Every bench binary regenerates
 * one (or one family of) paper table/figure — see DESIGN.md section 5
 * for the index — by building a RunPlan and formatting the RunReport.
 *
 * Every bench defines benchMain() instead of main(): the main() in
 * bench_common.cc runs it and turns a FatalError that escapes it (an
 * output file that cannot be written, say) into one "fatal:" line
 * and exit status 1.
 */

#ifndef RRM_BENCH_BENCH_COMMON_HH
#define RRM_BENCH_BENCH_COMMON_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "run/run_plan.hh"
#include "run/run_report.hh"
#include "run/runner.hh"
#include "system/system.hh"

namespace rrm::bench
{

/**
 * The flag families a bench can honour. Each bench passes the union
 * of the families it reads to BenchOptions::parse, which rejects
 * every other flag: no flag is accepted and then silently ignored.
 */
enum BenchFlagGroup : unsigned
{
    NoFlags = 0,
    /**
     * Everything makeConfig() and the runner consume, which every
     * plan-running bench honours: window, scale, seed, workload and
     * mix selection, runner policy, per-run outputs, checkpoints, and
     * the retention check.
     */
    RunFlags = 1u << 0,
    SchemesFlag = 1u << 1, ///< --schemes, read via selectedSchemes()
    JsonOutFlag = 1u << 2, ///< --json-out, for benches writing a report
};

/** Options common to all reproduction benches. */
struct BenchOptions
{
    /** Simulated window in (scaled) seconds. */
    double windowSeconds = 0.060;

    /** Retention compression factor (DESIGN.md section 3). */
    double timeScale = 50.0;

    double warmupFraction = 0.2;
    std::uint64_t seed = 1;

    /** Workload subset; empty = the full Table VII set. */
    std::vector<std::string> workloads;

    /**
     * @{ Ad-hoc N-core mixes (--mix, repeatable), each optionally
     * paired by index with a tenant grouping (--tenants). A mix spec
     * follows the trace::parseWorkloadSpec grammar
     * ("zeusmp,lbm,lbm,milc:2"); a tenant spec is one id per core
     * ("0,0,1,1"). Mixes are appended after the named workloads (or
     * replace the standard set when --workloads is absent).
     */
    std::vector<std::string> mixes;
    std::vector<std::string> tenants;
    /** @} */

    /** Scheme subset by name (--schemes); empty = bench default. */
    std::vector<std::string> schemes;

    /** Worker threads (--jobs); 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 0;

    /** Cancel queued runs after the first failure (--fail-fast). */
    bool failFast = false;

    /**
     * @{ Per-run observability outputs. Each stem produces one file
     * per run, named `<stem>.<run-id><ext>` (matrix run ids are
     * `<workload>.<scheme>`), via SystemConfig::obs.
     */
    std::string statsJsonStem;  ///< run records (--stats-json)
    std::string sampleCsvStem;  ///< sampled time series (--sample-csv)
    std::string traceJsonlStem; ///< JSONL traces (--trace-jsonl)
    std::string perfettoStem;   ///< Perfetto timelines (--perfetto-out)
    std::string telemetryStem;  ///< telemetry JSON (--telemetry)
    /** @} */

    /** One stderr line per finished run (--progress). */
    bool progress = false;

    /** Bench-report path override (--json-out); bench default if empty. */
    std::string jsonOut;

    /** Per-run wall-clock budget in seconds (--timeout); 0 = none. */
    double timeoutSeconds = 0.0;

    /**
     * @{ Crash-safe checkpointing (--checkpoint-every /
     * --checkpoint-dir / --resume). Every run checkpoints into its
     * own subdirectory `<checkpointDir>/<run-id>` (created on
     * demand), so one interrupted plan resumes per run. See
     * SystemConfig::checkpointEveryEpochs for the cadence and the
     * byte-identity contract.
     */
    std::uint64_t checkpointEveryEpochs = 0;
    std::string checkpointDir;
    bool resume = false;
    /** @} */

    /**
     * The retention check (--fault-retention, --fault-strict), copied
     * into every run's SystemConfig. Off, bench outputs are
     * byte-identical to builds without it.
     */
    fault::FaultConfig fault;

    /**
     * Parse argv against the declarative flag table (see
     * benchFlagTable() in bench_common.cc), accepting only the flags
     * of `groups` (a union of BenchFlagGroup values). An unknown or
     * undeclared flag, a missing value, a numeric value that is not
     * wholly a number, a negative --timeout, a checkpoint flag without
     * the others it needs, a name that --workloads, --mix, --tenants
     * or --schemes cannot resolve, an output path whose directory does
     * not exist, a --json-out that is a directory, or a checkpoint
     * directory that cannot be created is a usage error: its fatal()
     * message is printed and the process exits with status 2, before
     * any run starts. --help prints the flags `bench` accepts and
     * exits.
     */
    static BenchOptions parse(int argc, char **argv, const char *bench,
                              unsigned groups);

    /** Workloads selected by the options (named + --mix specs). */
    std::vector<trace::Workload> selectedWorkloads() const;

    /**
     * Schemes selected by --schemes (parsed via parseScheme), or
     * `defaults` when the flag was not given.
     */
    std::vector<sys::Scheme>
    selectedSchemes(const std::vector<sys::Scheme> &defaults) const;

    /**
     * Runner policy from these options (jobs, fail-fast, timeout);
     * --progress names each run by its id in `plan`, which must
     * outlive the runner.
     */
    run::RunnerOptions runnerOptions(const run::RunPlan &plan) const;
};

/** Hook to adjust the SystemConfig before a run (sweep knobs). */
using ConfigHook = std::function<void(sys::SystemConfig &)>;

/**
 * Fluent RunPlan construction. A builder replaces the
 * loop-plus-makeConfig boilerplate of the sweep benches:
 *
 *     bench::PlanBuilder plan(opts);
 *     for (const auto &w : workloads) {
 *         plan.run(w, rrm).tag(w.name + ".rrm-t8")
 *             .with([](sys::SystemConfig &c) { c.rrm.hotThreshold = 8; });
 *     }
 *     const run::RunReport report = plan.execute();
 *
 * run() starts a pending run; tag()/with()/postRun() modify it; the
 * next run() (or build()/execute()) finalizes it via makeConfig, so
 * the id set by tag() also names the run's observability outputs.
 * with() hooks compose in call order.
 *
 * Because hooks execute at finalization (not at the with() call),
 * capture sweep variables BY VALUE — a by-reference capture of a loop
 * counter would read the next iteration's value.
 */
class PlanBuilder
{
  public:
    explicit PlanBuilder(const BenchOptions &opts) : opts_(opts) {}

    /** Start one (workload, scheme) run. */
    PlanBuilder &run(const trace::Workload &workload,
                     const sys::Scheme &scheme);

    /** Set the pending run's id (default "<workload>.<scheme>"). */
    PlanBuilder &tag(std::string id);

    /** Append a config tweak to the pending run. */
    PlanBuilder &with(ConfigHook hook);

    /** Attach a post-run inspection hook to the pending run. */
    PlanBuilder &postRun(run::PostRunHook hook);

    /** Append the whole workload x scheme matrix with default ids. */
    PlanBuilder &matrix(const std::vector<trace::Workload> &workloads,
                        const std::vector<sys::Scheme> &schemes,
                        const ConfigHook &hook = {});

    /** Finalize the pending run and return the plan. */
    run::RunPlan build();

    /** build() and execute with the options' runner policy. */
    run::RunReport execute();

  private:
    void flush();

    const BenchOptions &opts_;
    run::RunPlan plan_;

    bool pendingActive_ = false;
    trace::Workload pendingWorkload_;
    std::optional<sys::Scheme> pendingScheme_;
    std::string pendingId_;
    std::vector<ConfigHook> pendingHooks_;
    run::PostRunHook pendingPostRun_;
};

/**
 * Build the SystemConfig for one run. `tag` names this run's per-run
 * observability outputs (`<stem>.<tag>.json` etc.); empty selects the
 * matrix default "<workload>.<scheme>". Give every variant run of a
 * sweep a distinct tag — RunPlan::validate rejects clashing outputs.
 */
sys::SystemConfig makeConfig(const trace::Workload &workload,
                             const sys::Scheme &scheme,
                             const BenchOptions &opts,
                             const ConfigHook &hook = {},
                             const std::string &tag = "");

/**
 * Plan every selected workload under every scheme, workload-major,
 * with run ids "<workload>.<scheme>".
 */
run::RunPlan buildMatrixPlan(
    const std::vector<trace::Workload> &workloads,
    const std::vector<sys::Scheme> &schemes, const BenchOptions &opts,
    const ConfigHook &hook = {});

/**
 * Execute a plan with the options' runner policy and print the
 * plan-level summary (runs, jobs, wall seconds, slowest run) to
 * stderr. A plan that fails validation exits with status 2; one where
 * any run did not finish prints one "fatal:" line naming every such
 * run and exits with status 1.
 */
run::RunReport runPlan(const run::RunPlan &plan,
                       const BenchOptions &opts);

/**
 * Run every selected workload under every scheme.
 * Results are indexed [workload][scheme].
 */
std::vector<std::vector<sys::SimResults>> runMatrix(
    const std::vector<trace::Workload> &workloads,
    const std::vector<sys::Scheme> &schemes, const BenchOptions &opts,
    const ConfigHook &hook = {});

/** Geometric mean of a per-workload metric. */
double geomeanOver(const std::vector<sys::SimResults> &results,
                   const std::function<double(const sys::SimResults &)>
                       &metric);

/** @{ Table formatting helpers. */
void printTitle(const std::string &title);
void printRule(int width = 98);
/** @} */

/** Schema version of the machine-readable bench reports. */
constexpr int benchReportSchemaVersion = 1;

/**
 * Write a machine-readable report of a bench's run matrix: schema
 * version, bench name, build metadata, the options of the run, and
 * one full SimResults record per (workload, scheme) pair. Execution
 * details (jobs, wall time) are deliberately excluded so reports are
 * byte-identical across --jobs values. fatal() if the file cannot be
 * opened.
 */
void writeBenchReport(
    const std::string &path, const std::string &bench_name,
    const BenchOptions &opts,
    const std::vector<trace::Workload> &workloads,
    const std::vector<sys::Scheme> &schemes,
    const std::vector<std::vector<sys::SimResults>> &results);

} // namespace rrm::bench

/** The bench's entry point; main() is in bench_common.cc. */
int benchMain(int argc, char **argv);

#endif // RRM_BENCH_BENCH_COMMON_HH
