/**
 * @file
 * The traced per-layer replay.
 *
 * Pipeline rebuilds one System's wiring from public constructors — a
 * cpu::CoreModel per core talking to this benchmark's own
 * cpu::CorePort, a cache::CacheHierarchy, the scheme's
 * policy::WritePolicy, a sys::WritePath, a memctrl::Controller and an
 * EventQueue — and mirrors System's port logic line for line (fault
 * layer, tenants, wear and energy accounting left out: they do not
 * change timing). With a Tracer attached it times a sample of the
 * EventQueue steps, each classified by the priority class of the event
 * it ran, with the spans of the calls the port makes into other layers
 * inside it.
 *
 * streamReplay() times what happens inside CoreModel, where no port
 * call can reach: TraceSource::next and CacheHierarchy::access over
 * the same per-core record streams.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "system/system.hh"

namespace perfbench
{

/** What a span covers. Step kinds are the root spans. */
enum class SpanKind : std::uint8_t
{
    StepRefresh = 0, ///< RefreshInterrupt events: RRM interrupts
    StepMemResponse, ///< MemoryResponse events: channel completions
    StepDefault,     ///< Default events: channel scheduling, retries
    StepCpu,         ///< CpuTick events: CoreModel::advance
    StepSampler,     ///< Sampler events (none on this path)
    Fill,            ///< CoreModel::onFillComplete -> hierarchy fill
    Register,        ///< WritePolicy::registerLlcWrite
    ModeQuery,       ///< WritePolicy::writeModeFor
    EnqueueRead,     ///< Controller::enqueueRead
    EnqueueWrite,    ///< WritePath::queueWriteback -> enqueueWrite
    EnqueueRefresh,  ///< WritePath::submitRefresh -> enqueueRefresh
    Resume,          ///< CoreModel::resume of every core (wake-up)
};
constexpr std::size_t numStepKinds = 5;
constexpr std::size_t numSpanKinds = 12;

const char *spanKindName(SpanKind k);

/** One recorded span of a sampled step (kept in memory). */
struct SpanRecord
{
    std::uint8_t kind;
    std::uint8_t depth;   ///< 0 = the step itself
    std::uint16_t pad;
    std::uint32_t parent; ///< index into the record vector (root: self)
    std::int64_t startNs;
    std::int64_t endNs;
};

/**
 * Span recorder. About one step in sampleOneIn is timed, with the full
 * tree of its child spans; the steps between run in one batch, timed
 * as a whole, so a clock read (~50 ns on a VM) is not paid per event.
 *
 * The sampled spans give the split between layers; the batches give
 * the total. First the measurement's own cost is taken out of each
 * span, calibrated at construction:
 *  - a child span's duration holds about one clock read;
 *  - every span nested inside another adds one begin/end pair to it;
 *  - a timed step costs more than the same step inside a batch (clock
 *    reads, the class probe, leaving the batched loop): measured on a
 *    queue of empty events.
 * What inflation remains (a step run alone loses the overlap it has
 * with its neighbours in a batch) is removed by scaling the sampled
 * steps to the batched per-event time, pro rata.
 */
class Tracer
{
  public:
    static constexpr unsigned sampleOneIn = 16;

    Tracer();

    /** Untimed steps to run before the next sampled one (mean 15). */
    std::uint64_t nextGap();

    /** @{ The sampled step's root span, called by runSampled(). */
    void beginStep();
    void endStep(SpanKind cls);
    void abandonStep();
    /** @} */

    /** @{ Child spans; no-ops outside a sampled step. */
    void begin(SpanKind k);
    void end();
    bool sampling() const { return sampling_; }
    /** @} */

    /** Mean pending-event count seen at sampled steps. */
    double meanQueueDepth() const;
    void noteQueueDepth(std::size_t d);

    /** An untimed stretch of `events` events that took `ns`. */
    void noteBatch(double ns, std::uint64_t events);

    /** Per-layer estimate derived from the records (nanoseconds). */
    struct Summary
    {
        std::array<double, numSpanKinds> selfNs{};   ///< scaled totals
        std::array<double, numSpanKinds> callsEst{}; ///< scaled counts
        std::array<double, numStepKinds> classSelfNs{}; ///< minus children
        std::array<double, numStepKinds> classSteps{};
        double stepsTotalNs = 0.0;
        double inflation = 0.0; ///< sampled / batched per-event time
    };

    /** @param events Every event the traced run executed. */
    Summary summarize(std::uint64_t events) const;

    /** Write the kept records (binary SpanRecord array) to `path`. */
    void writeSpans(const std::string &path) const;

  private:
    void calibrate();

    std::vector<SpanRecord> records_;
    std::uint32_t stack_[16];
    unsigned depth_ = 0;
    bool sampling_ = false;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
    std::uint32_t stepRecord_ = 0;
    double clockNs_ = 0.0;    ///< one clock read
    double spanCostNs_ = 0.0; ///< one nested begin/end pair
    double stepCostNs_ = 0.0; ///< timing one step instead of batching it
    double depthSum_ = 0.0;
    std::uint64_t depthSamples_ = 0;
    double batchNs_ = 0.0;
    std::uint64_t batchEvents_ = 0;
};

/**
 * Tells which priority class the event a step just ran belongs to,
 * from the queue's own per-priority counter (EventQueueTelemetry),
 * attached only around timed steps.
 */
class ClassProbe
{
  public:
    ClassProbe();

    ClassProbe(const ClassProbe &) = delete;
    ClassProbe &operator=(const ClassProbe &) = delete;

    const rrm::EventQueueTelemetry *telemetry() const { return &telemetry_; }

    /** Class of the one event executed since the previous call. */
    SpanKind lastClass();

  private:
    rrm::stats::VectorStat byPriority_;
    rrm::stats::HistogramStat scheduleLatency_;
    rrm::stats::HistogramStat queueDepth_;
    rrm::EventQueueTelemetry telemetry_;
    std::array<double, numStepKinds> last_{};
};

/**
 * Run `queue` up to `until` (as EventQueue::run does), timing about one
 * step in Tracer::sampleOneIn.
 */
void runSampled(rrm::EventQueue &queue, rrm::Tick until, Tracer &tracer,
                ClassProbe &probe);

/** Counts the replay produced, for the fidelity check. */
struct ReplayCounts
{
    double llcMisses = 0.0;
    double memReads = 0.0;
    double memWrites = 0.0;
    double rrmRegistrations = 0.0;
};

/** One System's wiring, replayed under optional tracing. */
class Pipeline : public rrm::cpu::CorePort
{
  public:
    /** @param tracer Null runs untraced (batched event loop). */
    Pipeline(rrm::sys::SystemConfig config, Tracer *tracer);
    ~Pipeline() override;

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Warmup, stat reset, measurement — the same schedule as run(). */
    void run();

    std::uint64_t eventsExecuted() const { return queue_.eventsExecuted(); }

    /** Trace records each core consumed over the whole run. */
    std::vector<std::uint64_t> recordsPerCore() const;

    ReplayCounts counts() const;

    // ---- CorePort ----
    bool requestFill(unsigned core, rrm::Addr line, bool is_write,
                     rrm::Tick when) override;
    void handleAccessEvents(unsigned core,
                            const rrm::cache::HierarchyEvents &ev,
                            rrm::Tick when) override;

  private:
    void runUntil(rrm::Tick until);
    void tryEnqueueRead(unsigned core, rrm::Addr line);
    void onReadComplete(unsigned core, rrm::Addr line);
    void issueMemoryWrite(rrm::Addr addr, rrm::Tick when);
    void queueWriteback(rrm::Addr phys, rrm::pcm::WriteMode mode);
    void onPolicyRefresh(const rrm::monitor::RefreshRequest &req);
    double refreshPressure() const;
    void wakeCores();

    rrm::sys::SystemConfig config_;
    Tracer *tracer_;
    rrm::EventQueue queue_;
    rrm::stats::StatGroup root_{"system"};

    std::unique_ptr<rrm::cache::CacheHierarchy> hierarchy_;
    std::unique_ptr<rrm::memctrl::Controller> controller_;
    std::unique_ptr<rrm::sys::WritePath> writePath_;
    std::unique_ptr<rrm::policy::WritePolicy> policy_;
    std::vector<std::unique_ptr<rrm::cpu::CoreModel>> cores_;

    unsigned outstandingFills_ = 0;
    std::uint64_t refreshSeq_ = 0;
    std::uint64_t timeScaleInt_ = 1;
    std::vector<std::uint64_t> warmupRecords_;
    rrm::stats::Scalar *statFillRefusals_ = nullptr;

    ClassProbe probe_;
};

/** Host cost of the work CoreModel does internally. */
struct StreamTimes
{
    std::uint64_t records = 0;
    double traceNs = 0.0; ///< TraceSource::next
    double accessNs = 0.0; ///< CacheHierarchy::access
};

/**
 * Regenerate each core's record stream (same seeds as the System) and
 * replay it through a fresh hierarchy, filling every LLC miss at once.
 */
StreamTimes streamReplay(const rrm::sys::SystemConfig &config,
                         const std::vector<std::uint64_t> &records_per_core);

/**
 * Host ns per event of the bare event kernel: a queue held at `depth`
 * pending events whose callbacks only reschedule themselves, run in
 * one batch as the untimed stretches of the traced loop are.
 */
double calibrateEventKernel(std::size_t depth);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
