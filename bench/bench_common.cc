/**
 * @file
 * Bench infrastructure implementation.
 */

#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/atomic_file.hh"
#include "common/check.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/parse_number.hh"
#include "obs/run_record.hh"

namespace rrm::bench
{

namespace
{

/** A flag's argument, with strict numeric conversions. */
struct FlagValue
{
    const std::string &flag;
    std::string text; ///< empty for argument-less flags

    /**
     * The whole text as a T (see parseNumber()); fatal() naming the
     * flag and the value otherwise — "--jobs abc" must not quietly
     * become 0.
     */
    template <typename T>
    T
    number() const
    {
        if (const std::optional<T> v = parseNumber<T>(text))
            return *v;
        fatal("flag ", flag, " needs ",
              std::is_floating_point_v<T> ? "a finite number"
                                          : "a non-negative integer",
              ", got '", text, "'");
    }

    /** The text split at commas (list-valued flags). */
    std::vector<std::string>
    list() const
    {
        std::vector<std::string> out;
        std::stringstream ss(text);
        std::string item;
        while (std::getline(ss, item, ','))
            out.push_back(item);
        return out;
    }
};

/** One entry of the declarative flag table. */
struct BenchFlag
{
    const char *name;      ///< including the leading dashes
    const char *valueName; ///< metavar of the argument; null = none
    BenchFlagGroup group;  ///< family a bench declares to accept it
    const char *doc;       ///< one-line help text
    std::function<void(BenchOptions &, const FlagValue &)> apply;
};

/**
 * The flag table: name, argument kind, family, doc string, and
 * effect, in --help order. Adding a runner/bench flag is one entry
 * here.
 */
const std::vector<BenchFlag> &
benchFlagTable()
{
    using O = BenchOptions;
    using V = FlagValue;
    static const std::vector<BenchFlag> table = {
        {"--quick", nullptr, RunFlags, "8 ms window (smoke-test the bench)",
         [](O &o, const V &) { o.windowSeconds = 0.008; }},
        {"--window-ms", "F", RunFlags, "window length in milliseconds",
         [](O &o, const V &v) {
             o.windowSeconds = v.number<double>() / 1e3;
         }},
        {"--scale", "F", RunFlags, "retention time-scale factor",
         [](O &o, const V &v) { o.timeScale = v.number<double>(); }},
        {"--seed", "N", RunFlags, "base RNG seed of every run",
         [](O &o, const V &v) { o.seed = v.number<std::uint64_t>(); }},
        {"--workloads", "a,b,c", RunFlags, "subset of Table VII names",
         [](O &o, const V &v) {
             for (auto &name : v.list())
                 o.workloads.push_back(std::move(name));
         }},
        {"--mix", "SPEC", RunFlags,
         "N-core mix spec, e.g. zeusmp,lbm,lbm,milc:2 (repeatable)",
         [](O &o, const V &v) { o.mixes.push_back(v.text); }},
        {"--tenants", "IDS", RunFlags,
         "tenant id per core of the matching --mix, e.g. 0,0,1,1",
         [](O &o, const V &v) { o.tenants.push_back(v.text); }},
        {"--schemes", "a,b,c", SchemesFlag, "subset of scheme names",
         [](O &o, const V &v) {
             for (auto &name : v.list())
                 o.schemes.push_back(std::move(name));
         }},
        {"--jobs", "N", RunFlags,
         "worker threads (0 = hardware concurrency, 1 = serial)",
         [](O &o, const V &v) { o.jobs = v.number<unsigned>(); }},
        {"--fail-fast", nullptr, RunFlags,
         "cancel queued runs after the first failure",
         [](O &o, const V &) { o.failFast = true; }},
        {"--stats-json", "STEM", RunFlags,
         "per-run run-record JSON files STEM.<run>.json",
         [](O &o, const V &v) { o.statsJsonStem = v.text; }},
        {"--sample-csv", "STEM", RunFlags,
         "per-run sampled time series STEM.<run>.csv",
         [](O &o, const V &v) { o.sampleCsvStem = v.text; }},
        {"--trace-jsonl", "STEM", RunFlags,
         "per-run JSONL trace files STEM.<run>.jsonl",
         [](O &o, const V &v) { o.traceJsonlStem = v.text; }},
        {"--perfetto-out", "STEM", RunFlags,
         "per-run Perfetto timelines STEM.<run>.perfetto.json",
         [](O &o, const V &v) { o.perfettoStem = v.text; }},
        {"--telemetry", "STEM", RunFlags,
         "per-run telemetry stats STEM.<run>.telemetry.json",
         [](O &o, const V &v) { o.telemetryStem = v.text; }},
        {"--progress", nullptr, RunFlags,
         "one stderr line per finished run (status, id, Mev/s, ETA)",
         [](O &o, const V &) { o.progress = true; }},
        {"--json-out", "F", JsonOutFlag, "bench-report path",
         [](O &o, const V &v) { o.jsonOut = v.text; }},
        {"--timeout", "F", RunFlags, "per-run wall-clock budget in seconds",
         [](O &o, const V &v) {
             o.timeoutSeconds = v.number<double>();
             if (o.timeoutSeconds < 0.0) {
                 fatal("flag --timeout needs a non-negative number, got '",
                       v.text, "'");
             }
         }},
        {"--checkpoint-every", "N", RunFlags,
         "publish a checkpoint every N decay epochs (0 = off)",
         [](O &o, const V &v) {
             o.checkpointEveryEpochs = v.number<std::uint64_t>();
         }},
        {"--checkpoint-dir", "DIR", RunFlags,
         "root directory for per-run checkpoint subdirectories",
         [](O &o, const V &v) { o.checkpointDir = v.text; }},
        {"--resume", nullptr, RunFlags,
         "resume each run from its newest valid checkpoint",
         [](O &o, const V &) { o.resume = true; }},
        {"--fault-retention", nullptr, RunFlags,
         "count missed retention deadlines of short-retention writes",
         [](O &o, const V &) { o.fault.retentionTracking = true; }},
        {"--fault-strict", nullptr, RunFlags,
         "treat a retention violation as a check failure",
         [](O &o, const V &) { o.fault.strict = true; }},
    };
    return table;
}

/** Print the --help text: the flags `groups` accepts. */
void
printFlagHelp(const char *bench, unsigned groups)
{
    std::printf("usage: %s [flags]\nflags:\n", bench);
    for (const BenchFlag &flag : benchFlagTable()) {
        if (!(flag.group & groups))
            continue;
        std::string usage = flag.name;
        if (flag.valueName)
            usage += std::string(" ") + flag.valueName;
        std::printf("  %-22s %s\n", usage.c_str(), flag.doc);
    }
    std::printf("  %-22s %s\n", "--help, -h", "this text");
}

/**
 * Report a usage error and exit like --help does, rather than
 * unwinding out of main() into an abort.
 */
[[noreturn]] void
exitUsageError(const FatalError &e)
{
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
}

/**
 * The checkpoint flags act only as a set (makeConfig copies them
 * together), so reject each form that would be silently ignored.
 */
void
checkCheckpointFlags(const BenchOptions &opts)
{
    if (opts.checkpointEveryEpochs > 0 && opts.checkpointDir.empty()) {
        fatal("--checkpoint-every needs --checkpoint-dir"
              " (it would be silently ignored)");
    }
    if (!opts.checkpointDir.empty() && opts.checkpointEveryEpochs == 0) {
        fatal("--checkpoint-dir needs --checkpoint-every N with N > 0"
              " (it would be silently ignored)");
    }
    if (opts.resume && opts.checkpointEveryEpochs == 0) {
        fatal("--resume needs --checkpoint-every and --checkpoint-dir"
              " (it would be silently ignored)");
    }
}

/**
 * Every output a run writes lands in a directory that exists, so a bad
 * path fails before any simulation rather than after all of it. The
 * checkpoint root is created here; makeConfig() adds one subdirectory
 * per run.
 */
void
checkOutputPaths(const BenchOptions &opts)
{
    namespace fs = std::filesystem;
    const auto check_dir = [](const char *flag, const std::string &path) {
        if (path.empty())
            return;
        const fs::path dir = fs::path(path).parent_path();
        std::error_code ec;
        if (!dir.empty() && !fs::is_directory(dir, ec)) {
            fatal("flag ", flag, ": directory '", dir.string(),
                  "' does not exist");
        }
    };
    check_dir("--json-out", opts.jsonOut);
    std::error_code ec;
    if (fs::is_directory(opts.jsonOut, ec))
        fatal("flag --json-out: '", opts.jsonOut, "' is a directory");
    check_dir("--stats-json", opts.statsJsonStem);
    check_dir("--sample-csv", opts.sampleCsvStem);
    check_dir("--trace-jsonl", opts.traceJsonlStem);
    check_dir("--perfetto-out", opts.perfettoStem);
    check_dir("--telemetry", opts.telemetryStem);
    if (!opts.checkpointDir.empty()) {
        fs::create_directories(opts.checkpointDir, ec);
        if (ec) {
            fatal("flag --checkpoint-dir: cannot create directory '",
                  opts.checkpointDir, "': ", ec.message());
        }
    }
}

/** Apply argv to `opts`; fatal() on the first bad flag or value. */
void
applyFlags(BenchOptions &opts, int argc, char **argv, const char *bench,
           unsigned groups)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printFlagHelp(bench, groups);
            std::exit(0);
        }
        const BenchFlag *match = nullptr;
        for (const BenchFlag &flag : benchFlagTable()) {
            if (arg == flag.name) {
                match = &flag;
                break;
            }
        }
        if (!match)
            fatal(bench, ": unknown flag '", arg, "' (see --help)");
        if (!(match->group & groups)) {
            fatal(bench, " does not read flag ", arg,
                  " (see --help for the flags it accepts)");
        }
        FlagValue value{arg, {}};
        if (match->valueName) {
            if (i + 1 >= argc)
                fatal("flag ", arg, " needs a value");
            value.text = argv[++i];
        }
        match->apply(opts, value);
    }
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv, const char *bench,
                    unsigned groups)
{
    BenchOptions opts;
    try {
        applyFlags(opts, argc, argv, bench, groups);
        checkCheckpointFlags(opts);
        checkOutputPaths(opts);
        // Resolve the workload, mix, tenant and scheme names now, so a
        // bad one is a usage error too, not a fatal() out of main().
        (void)opts.selectedWorkloads();
        (void)opts.selectedSchemes({});
    } catch (const FatalError &e) {
        exitUsageError(e);
    }
    return opts;
}

std::vector<trace::Workload>
BenchOptions::selectedWorkloads() const
{
    if (tenants.size() > mixes.size()) {
        fatal("--tenants given ", tenants.size(),
              " time(s) but --mix only ", mixes.size(),
              " time(s); each --tenants pairs with one --mix");
    }
    std::vector<trace::Workload> out;
    for (const auto &name : workloads)
        out.push_back(trace::workloadFromName(name));
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        out.push_back(trace::workloadFromSpec(
            mixes[i], i < tenants.size() ? tenants[i] : ""));
    }
    if (out.empty())
        return trace::standardWorkloads();
    return out;
}

std::vector<sys::Scheme>
BenchOptions::selectedSchemes(
    const std::vector<sys::Scheme> &defaults) const
{
    if (schemes.empty())
        return defaults;
    std::vector<sys::Scheme> out;
    for (const auto &name : schemes)
        out.push_back(sys::parseScheme(name));
    return out;
}

run::RunnerOptions
BenchOptions::runnerOptions(const run::RunPlan &plan) const
{
    run::RunnerOptions ro;
    ro.jobs = jobs;
    ro.failFast = failFast;
    ro.timeoutSeconds = timeoutSeconds;
    if (progress) {
        ro.onProgress = [&plan](const run::RunProgress &p) {
            std::fprintf(stderr,
                         "progress: %zu/%zu %s %s %.2f s, %.2f Mev/s,"
                         " eta %.1f s\n",
                         p.finished, p.total, run::runStatusName(p.status),
                         plan[p.index].id.c_str(), p.runSeconds,
                         p.eventsPerSecond / 1e6, p.etaSeconds);
        };
    }
    return ro;
}

PlanBuilder &
PlanBuilder::run(const trace::Workload &workload,
                 const sys::Scheme &scheme)
{
    flush();
    pendingActive_ = true;
    pendingWorkload_ = workload;
    pendingScheme_ = scheme;
    pendingId_.clear();
    pendingHooks_.clear();
    pendingPostRun_ = nullptr;
    return *this;
}

PlanBuilder &
PlanBuilder::tag(std::string id)
{
    RRM_CHECK(pendingActive_, "PlanBuilder::tag() without run()");
    pendingId_ = std::move(id);
    return *this;
}

PlanBuilder &
PlanBuilder::with(ConfigHook hook)
{
    RRM_CHECK(pendingActive_, "PlanBuilder::with() without run()");
    pendingHooks_.push_back(std::move(hook));
    return *this;
}

PlanBuilder &
PlanBuilder::postRun(run::PostRunHook hook)
{
    RRM_CHECK(pendingActive_, "PlanBuilder::postRun() without run()");
    pendingPostRun_ = std::move(hook);
    return *this;
}

PlanBuilder &
PlanBuilder::matrix(const std::vector<trace::Workload> &workloads,
                    const std::vector<sys::Scheme> &schemes,
                    const ConfigHook &hook)
{
    for (const auto &w : workloads)
        for (const auto &s : schemes) {
            run(w, s);
            if (hook)
                with(hook);
        }
    return *this;
}

void
PlanBuilder::flush()
{
    if (!pendingActive_)
        return;
    pendingActive_ = false;
    auto hooks = std::move(pendingHooks_);
    const ConfigHook combined = hooks.empty()
        ? ConfigHook{}
        : [hooks](sys::SystemConfig &cfg) {
              for (const auto &h : hooks)
                  h(cfg);
          };
    run::RunSpec &spec =
        plan_.add(makeConfig(pendingWorkload_, *pendingScheme_, opts_,
                             combined, pendingId_),
                  pendingId_);
    spec.postRun = std::move(pendingPostRun_);
}

run::RunPlan
PlanBuilder::build()
{
    flush();
    return std::move(plan_);
}

run::RunReport
PlanBuilder::execute()
{
    return runPlan(build(), opts_);
}

sys::SystemConfig
makeConfig(const trace::Workload &workload, const sys::Scheme &scheme,
           const BenchOptions &opts, const ConfigHook &hook,
           const std::string &tag)
{
    sys::SystemConfig cfg;
    cfg.workload = workload;
    // Size the private-cache tier to the mix: 1-core solo companions
    // and 8-core mixes get exactly as many cores as the workload
    // names (canned 4-core workloads keep the default hierarchy).
    cfg.hierarchy.numCores = static_cast<unsigned>(workload.numCores());
    cfg.scheme = scheme;
    cfg.windowSeconds = opts.windowSeconds;
    cfg.timeScale = opts.timeScale;
    cfg.warmupFraction = opts.warmupFraction;
    cfg.seed = opts.seed;
    cfg.fault = opts.fault;

    const std::string run_tag =
        tag.empty() ? workload.name + "." + scheme.name() : tag;
    if (opts.checkpointEveryEpochs > 0 && !opts.checkpointDir.empty()) {
        // Each run owns a subdirectory: sibling runs of one plan
        // must not see each other's .rckpt files.
        cfg.checkpointEveryEpochs = opts.checkpointEveryEpochs;
        cfg.checkpointDir = opts.checkpointDir + "/" + run_tag;
        cfg.resumeFromCheckpoint = opts.resume;
        std::error_code ec;
        std::filesystem::create_directories(cfg.checkpointDir, ec);
        if (ec) {
            fatal("cannot create checkpoint directory ",
                  cfg.checkpointDir, ": ", ec.message());
        }
    }
    if (!opts.statsJsonStem.empty())
        cfg.obs.runRecordFile = opts.statsJsonStem + "." + run_tag + ".json";
    if (!opts.sampleCsvStem.empty())
        cfg.obs.sampleCsvFile = opts.sampleCsvStem + "." + run_tag + ".csv";
    if (!opts.traceJsonlStem.empty())
        cfg.obs.traceFile = opts.traceJsonlStem + "." + run_tag + ".jsonl";
    if (!opts.perfettoStem.empty()) {
        cfg.obs.perfettoFile =
            opts.perfettoStem + "." + run_tag + ".perfetto.json";
    }
    if (!opts.telemetryStem.empty()) {
        cfg.obs.telemetryJsonFile =
            opts.telemetryStem + "." + run_tag + ".telemetry.json";
    }

    if (hook)
        hook(cfg);
    return cfg;
}

run::RunPlan
buildMatrixPlan(const std::vector<trace::Workload> &workloads,
                const std::vector<sys::Scheme> &schemes,
                const BenchOptions &opts, const ConfigHook &hook)
{
    PlanBuilder builder(opts);
    return builder.matrix(workloads, schemes, hook).build();
}

run::RunReport
runPlan(const run::RunPlan &plan, const BenchOptions &opts)
{
    // ^C / SIGTERM becomes a graceful pool drain: in-flight runs stop
    // and write nothing (their epoch checkpoints stay as they were,
    // and --resume restores the newest), the report is completed, and
    // the plan fails with a full summary below.
    installInterruptHandlers();
    const run::Runner runner(opts.runnerOptions(plan));
    run::RunReport report;
    try {
        report = runner.execute(plan);
    } catch (const FatalError &e) {
        // Only plan validation throws out of execute(): a mix whose
        // footprints overflow their core slices is a usage error too.
        exitUsageError(e);
    }

    const std::size_t slowest = report.slowestRunIndex();
    std::fprintf(stderr,
                 "plan: %zu/%zu runs ok on %u worker(s) in %.2f s"
                 " (slowest %s: %.2f s)\n",
                 report.completedCount(), report.runs.size(),
                 report.jobs, report.wallSeconds,
                 slowest == std::string::npos
                     ? "n/a"
                     : report.runs[slowest].id.c_str(),
                 slowest == std::string::npos
                     ? 0.0
                     : report.runs[slowest].wallSeconds);

    if (!report.allOk()) {
        std::fprintf(stderr, "fatal: run plan %s: %s\n",
                     report.interruptedCount() > 0 ? "interrupted"
                                                   : "failed",
                     report.failureSummary().c_str());
        std::exit(1);
    }
    return report;
}

std::vector<std::vector<sys::SimResults>>
runMatrix(const std::vector<trace::Workload> &workloads,
          const std::vector<sys::Scheme> &schemes,
          const BenchOptions &opts, const ConfigHook &hook)
{
    const run::RunReport report =
        runPlan(buildMatrixPlan(workloads, schemes, opts, hook), opts);
    const std::vector<sys::SimResults> flat = report.okResults();

    std::vector<std::vector<sys::SimResults>> results;
    results.reserve(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        results.emplace_back(flat.begin() + w * schemes.size(),
                             flat.begin() + (w + 1) * schemes.size());
    }
    return results;
}

double
geomeanOver(const std::vector<sys::SimResults> &results,
            const std::function<double(const sys::SimResults &)> &metric)
{
    std::vector<double> values;
    values.reserve(results.size());
    for (const auto &r : results)
        values.push_back(metric(r));
    return geomean(values);
}

void
printTitle(const std::string &title)
{
    printRule();
    std::printf("%s\n", title.c_str());
    printRule();
}

void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

void
writeBenchReport(const std::string &path,
                 const std::string &bench_name, const BenchOptions &opts,
                 const std::vector<trace::Workload> &workloads,
                 const std::vector<sys::Scheme> &schemes,
                 const std::vector<std::vector<sys::SimResults>> &results)
{
    AtomicFile file(path);
    std::ostream &os = file.stream();

    obs::JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("schemaVersion", benchReportSchemaVersion);
    json.field("bench", bench_name);
    json.key("metadata");
    obs::writeRunMetadata(json, obs::currentRunMetadata());

    json.key("options");
    json.beginObject();
    json.field("windowSeconds", opts.windowSeconds);
    json.field("timeScale", opts.timeScale);
    json.field("warmupFraction", opts.warmupFraction);
    json.field("seed", opts.seed);
    json.endObject();

    json.key("workloads");
    json.beginArray();
    for (const auto &w : workloads)
        json.value(w.name);
    json.endArray();
    json.key("schemes");
    json.beginArray();
    for (const auto &s : schemes)
        json.value(s.name());
    json.endArray();

    json.key("runs");
    json.beginArray();
    for (const auto &row : results)
        for (const auto &r : row)
            r.toJson(json);
    json.endArray();

    json.endObject();
    os << '\n';
    file.commit();
}

} // namespace rrm::bench

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const rrm::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
