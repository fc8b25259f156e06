/**
 * @file
 * The traced per-layer replay (see replay.hh).
 */

#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common.hh"

namespace perfbench
{

using namespace rrm;

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Cost of one steady_clock read, in ns. */
double
clockReadNs()
{
    constexpr int n = 200000;
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < n; ++i)
        nowNs();
    const std::int64_t t1 = nowNs();
    return static_cast<double>(t1 - t0) / n;
}

/** RAII child span; free when the tracer is absent or not sampling. */
class Span
{
  public:
    Span(Tracer *t, SpanKind k) : t_(t && t->sampling() ? t : nullptr)
    {
        if (t_)
            t_->begin(k);
    }
    ~Span()
    {
        if (t_)
            t_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

/** A queue of `depth` self-rescheduling empty events (calibration). */
class EmptyEvents
{
  public:
    explicit EmptyEvents(std::size_t depth)
        : chains_(std::max<std::size_t>(depth, 1))
    {
        for (std::size_t i = 0; i < chains_.size(); ++i) {
            chains_[i] = Chain{&queue_, 0x1234567ULL + i};
            chains_[i].fire();
        }
    }

    EventQueue &queue() { return queue_; }

  private:
    struct Chain
    {
        EventQueue *q;
        std::uint64_t lcg;

        void
        fire()
        {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            // 10 ns .. 1 us lead times, like core quanta and bank ops.
            const Tick lead = 10_ns + (lcg >> 33) % 990_ns;
            q->scheduleAfter(lead, [this] { fire(); });
        }
    };

    EventQueue queue_;
    std::vector<Chain> chains_; // never resized: callbacks hold `this`
};

/**
 * The traced loop; stops at `until` or after `max_events` events.
 * @return false once the queue has nothing left before `until`.
 */
bool
runSampledEvents(EventQueue &queue, Tick until, std::uint64_t max_events,
                 Tracer &tracer, ClassProbe &probe)
{
    std::uint64_t done = 0;
    while (done < max_events) {
        const std::uint64_t gap =
            std::min(tracer.nextGap(), max_events - done);
        if (gap != 0) {
            const std::int64_t t0 = nowNs();
            const std::uint64_t ran = queue.run(until, gap);
            tracer.noteBatch(static_cast<double>(nowNs() - t0), ran);
            done += ran;
            if (ran < gap)
                return false;
        }
        if (done >= max_events)
            break;
        queue.setTelemetry(probe.telemetry());
        tracer.beginStep();
        const bool ran = queue.run(until, 1) != 0;
        if (ran)
            tracer.endStep(probe.lastClass());
        else
            tracer.abandonStep();
        queue.setTelemetry(nullptr);
        if (!ran)
            return false;
        ++done;
        tracer.noteQueueDepth(queue.size());
    }
    return true;
}

} // namespace

const char *
spanKindName(SpanKind k)
{
    static const char *const names[numSpanKinds] = {
        "step.refreshInterrupt", "step.memoryResponse", "step.default",
        "step.cpuTick",          "step.sampler",        "fill",
        "registerLlcWrite",      "writeModeFor",        "enqueueRead",
        "enqueueWrite",          "enqueueRefresh",      "resume"};
    return names[static_cast<std::size_t>(k)];
}

// ---------------------------------------------------------------- Tracer

Tracer::Tracer()
{
    records_.reserve(1 << 16);
    calibrate();
}

void
Tracer::calibrate()
{
    clockNs_ = clockReadNs();

    constexpr int pairs = 20000;
    beginStep();
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < pairs; ++i) {
        begin(SpanKind::Fill);
        end();
    }
    const std::int64_t t1 = nowNs();
    abandonStep();
    records_.clear();
    spanCostNs_ = (static_cast<double>(t1 - t0) - clockNs_) / pairs;

    // A timed empty step lasts the batched per-event cost plus what
    // timing it adds; that addition is taken out of every root span.
    EmptyEvents empty(16);
    ClassProbe probe;
    const Tick until = maxTick - 1;
    runSampledEvents(empty.queue(), until, 50000, *this, probe);
    std::uint64_t roots = 0;
    double root_ns = 0.0;
    for (const SpanRecord &r : records_) {
        ++roots;
        root_ns += static_cast<double>(r.endNs - r.startNs);
    }
    records_.clear();
    const double batched = calibrateEventKernel(16);
    stepCostNs_ =
        roots ? root_ns / static_cast<double>(roots) - batched : clockNs_;
}

std::uint64_t
Tracer::nextGap()
{
    // xorshift64: a fixed sampling sequence, blind to event classes.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_ % (2 * sampleOneIn - 1);
}

void
Tracer::beginStep()
{
    stepRecord_ = static_cast<std::uint32_t>(records_.size());
    records_.push_back(SpanRecord{0, 0, 0, stepRecord_, 0, 0});
    stack_[0] = stepRecord_;
    depth_ = 1;
    sampling_ = true;
    records_[stepRecord_].startNs = nowNs();
}

void
Tracer::endStep(SpanKind cls)
{
    SpanRecord &root = records_[stepRecord_];
    root.endNs = nowNs();
    root.kind = static_cast<std::uint8_t>(cls);
    sampling_ = false;
    depth_ = 0;
}

void
Tracer::abandonStep()
{
    records_.pop_back();
    sampling_ = false;
    depth_ = 0;
}

void
Tracer::begin(SpanKind k)
{
    if (depth_ >= std::size(stack_))
        throw std::runtime_error("span nesting too deep");
    const auto idx = static_cast<std::uint32_t>(records_.size());
    records_.push_back(SpanRecord{static_cast<std::uint8_t>(k),
                                  static_cast<std::uint8_t>(depth_), 0,
                                  stack_[depth_ - 1], nowNs(), 0});
    stack_[depth_++] = idx;
}

void
Tracer::end()
{
    records_[stack_[--depth_]].endNs = nowNs();
}

void
Tracer::noteQueueDepth(std::size_t d)
{
    depthSum_ += static_cast<double>(d);
    ++depthSamples_;
}

void
Tracer::noteBatch(double ns, std::uint64_t events)
{
    batchNs_ += ns - clockNs_;
    batchEvents_ += events;
}

double
Tracer::meanQueueDepth() const
{
    return depthSamples_ ? depthSum_ / static_cast<double>(depthSamples_)
                         : 0.0;
}

Tracer::Summary
Tracer::summarize(std::uint64_t events) const
{
    // Instrumentation-free duration of each span: less its own cost
    // (a clock read for a child, the calibrated step cost for a root)
    // and one begin/end pair per descendant. Records of a span's
    // subtree follow it, so one backward pass sees children first.
    const std::size_t n = records_.size();
    std::vector<double> desc(n, 0.0), child(n, 0.0), dur(n, 0.0);
    std::uint64_t steps = 0;
    for (std::size_t i = n; i-- > 0;) {
        const SpanRecord &r = records_[i];
        dur[i] = static_cast<double>(r.endNs - r.startNs) -
                 (r.depth > 0 ? clockNs_ : stepCostNs_) -
                 desc[i] * spanCostNs_;
        if (r.depth > 0) {
            desc[r.parent] += desc[i] + 1.0;
            child[r.parent] += dur[i];
        } else {
            ++steps;
        }
    }
    double sampled_ns = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (records_[i].depth == 0)
            sampled_ns += dur[i];

    Summary s;
    if (steps == 0 || sampled_ns <= 0.0 || batchEvents_ == 0)
        return s;
    const double per_event_batched =
        batchNs_ / static_cast<double>(batchEvents_);
    s.inflation =
        sampled_ns / static_cast<double>(steps) / per_event_batched;
    const double count_scale =
        static_cast<double>(events) / static_cast<double>(steps);
    const double time_scale = count_scale / s.inflation;
    for (std::size_t i = 0; i < n; ++i) {
        const SpanRecord &r = records_[i];
        if (r.depth == 0) {
            s.classSelfNs[r.kind] += (dur[i] - child[i]) * time_scale;
            s.classSteps[r.kind] += count_scale;
            s.stepsTotalNs += dur[i] * time_scale;
        } else {
            s.selfNs[r.kind] += (dur[i] - child[i]) * time_scale;
            s.callsEst[r.kind] += count_scale;
        }
    }
    return s;
}

void
Tracer::writeSpans(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    const std::size_t n =
        std::fwrite(records_.data(), sizeof(SpanRecord), records_.size(), f);
    const bool ok = std::fclose(f) == 0 && n == records_.size();
    if (!ok)
        throw std::runtime_error("short write to " + path);
}

// ------------------------------------------------------- the traced loop

ClassProbe::ClassProbe()
    : byPriority_("executed", "events by priority class",
                  EventQueueTelemetry::priorityBinNames()),
      scheduleLatency_("scheduleLatency", "schedule lead time"),
      queueDepth_("queueDepth", "pending events at schedule")
{
    telemetry_.executedByPriority = &byPriority_;
    telemetry_.scheduleLatency = &scheduleLatency_;
    telemetry_.queueDepth = &queueDepth_;
}

SpanKind
ClassProbe::lastClass()
{
    for (std::size_t b = 0; b < numStepKinds; ++b) {
        const double v = byPriority_.value(b);
        if (v != last_[b]) {
            last_[b] = v;
            return static_cast<SpanKind>(b);
        }
    }
    throw std::runtime_error("a step ran no event");
}

void
runSampled(EventQueue &queue, Tick until, Tracer &tracer, ClassProbe &probe)
{
    runSampledEvents(queue, until, ~std::uint64_t(0), tracer, probe);
}

// -------------------------------------------------------------- Pipeline

Pipeline::Pipeline(sys::SystemConfig config, Tracer *tracer)
    : config_(std::move(config)), tracer_(tracer)
{
    // Same construction order as sys::System, so every event takes the
    // same sequence number and the replay reproduces the run exactly.
    config_.finalize();
    timeScaleInt_ = static_cast<std::uint64_t>(config_.timeScale);
    if (timeScaleInt_ < 1)
        timeScaleInt_ = 1;

    hierarchy_ = std::make_unique<cache::CacheHierarchy>(config_.hierarchy);
    controller_ =
        std::make_unique<memctrl::Controller>(config_.memory, queue_);
    writePath_ = std::make_unique<sys::WritePath>(
        *controller_, queue_, config_.writebackBufferCap,
        config_.memory.busCycle);

    controller_->setWriteIssuedHook([this] {
        writePath_->drainWritebacks();
        wakeCores();
    });
    controller_->setCompletionHook(
        [this](const memctrl::Request &req, Tick) {
            if (req.kind == memctrl::ReqKind::RrmRefresh)
                writePath_->drainRefreshOverflow();
        });

    policy::TenantLayout layout;
    layout.coreSliceBytes =
        config_.memory.memoryBytes / config_.hierarchy.numCores;
    policy_ = config_.scheme.makePolicy(config_.rrm, config_.adaptive,
                                        config_.qos, layout, queue_);
    policy_->setRefreshCallback(
        [this](const monitor::RefreshRequest &req) {
            onPolicyRefresh(req);
        });
    policy_->setPressureProbe([this] { return refreshPressure(); });

    hierarchy_->regStats(root_);
    controller_->regStats(root_);
    policy_->regStats(root_);
    auto &g = root_.addChild("sys");
    statFillRefusals_ =
        &g.addScalar("fillRefusals", "fills refused by backpressure");
    writePath_->regStats(g);

    const std::uint64_t slice =
        config_.memory.memoryBytes / config_.hierarchy.numCores;
    Random seeder(config_.seed);
    for (unsigned c = 0; c < config_.hierarchy.numCores; ++c) {
        const auto &profile =
            trace::benchmarkProfile(config_.workload.perCore[c]);
        auto core = std::make_unique<cpu::CoreModel>(
            c, config_.core,
            trace::TraceSource::generate(profile, seeder.next()),
            *hierarchy_, *this, queue_, static_cast<Addr>(c) * slice);
        core->regStats(root_);
        cores_.push_back(std::move(core));
    }
}

Pipeline::~Pipeline() = default;

void
Pipeline::run()
{
    const Tick end = secondsToTicks(config_.windowSeconds);
    const Tick warmup_end =
        secondsToTicks(config_.windowSeconds * config_.warmupFraction);
    for (auto &core : cores_)
        core->start();
    policy_->start();

    runUntil(warmup_end);
    const auto warmup = recordsPerCore(); // the reset zeroes memOps
    root_.reset();
    for (auto &core : cores_)
        core->resetInstructionCount();
    warmupRecords_ = warmup;
    runUntil(end);
}

void
Pipeline::runUntil(Tick until)
{
    if (tracer_) {
        runSampled(queue_, until, *tracer_, probe_);
        return;
    }
    while (queue_.run(until, std::uint64_t{1} << 20) != 0) {
    }
}

std::vector<std::uint64_t>
Pipeline::recordsPerCore() const
{
    std::vector<std::uint64_t> out;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const auto *s = dynamic_cast<const stats::Scalar *>(
            root_.find("core" + std::to_string(c) + ".memOps"));
        const std::uint64_t now =
            s ? static_cast<std::uint64_t>(s->value()) : 0;
        out.push_back(now +
                      (c < warmupRecords_.size() ? warmupRecords_[c] : 0));
    }
    return out;
}

ReplayCounts
Pipeline::counts() const
{
    const auto flat = flattenStats(root_);
    ReplayCounts r;
    r.llcMisses = sumStats(flat, "", "llc.misses");
    r.memReads = sumStats(flat, "channel", ".reads");
    r.memWrites = sumStats(flat, "channel", ".writes");
    r.rrmRegistrations = sumStats(flat, "", "rrm.registrations");
    return r;
}

bool
Pipeline::requestFill(unsigned core, Addr line, bool is_write, Tick when)
{
    (void)is_write;
    if (outstandingFills_ >= hierarchy_->llcMshrs() ||
        writePath_->writebackFull()) {
        ++*statFillRefusals_;
        return false;
    }
    ++outstandingFills_;
    if (when <= queue_.now()) {
        tryEnqueueRead(core, line);
    } else {
        queue_.schedule(when,
                        [this, core, line] { tryEnqueueRead(core, line); });
    }
    return true;
}

void
Pipeline::tryEnqueueRead(unsigned core, Addr line)
{
    bool ok;
    {
        Span span(tracer_, SpanKind::EnqueueRead);
        ok = controller_->enqueueRead(
            line, [this, core, line](Tick) { onReadComplete(core, line); });
    }
    if (!ok) {
        queue_.scheduleAfter(100_ns, [this, core, line] {
            tryEnqueueRead(core, line);
        });
    }
}

void
Pipeline::onReadComplete(unsigned core, Addr line)
{
    {
        Span span(tracer_, SpanKind::Fill);
        cores_[core]->onFillComplete(line);
    }
    --outstandingFills_;
    wakeCores();
}

void
Pipeline::handleAccessEvents(unsigned core, const cache::HierarchyEvents &ev,
                             Tick when)
{
    (void)core;
    if (ev.registration) {
        Span span(tracer_, SpanKind::Register);
        policy_->registerLlcWrite(ev.registrationAddr,
                                  ev.registrationWasDirty);
    }
    if (ev.memWrite)
        issueMemoryWrite(ev.memWriteAddr, when);
}

void
Pipeline::issueMemoryWrite(Addr addr, Tick when)
{
    pcm::WriteMode mode;
    {
        Span span(tracer_, SpanKind::ModeQuery);
        mode = policy_->writeModeFor(addr);
    }
    when += policy_->accessLatency();
    if (when <= queue_.now()) {
        queueWriteback(addr, mode);
    } else {
        queue_.schedule(when,
                        [this, addr, mode] { queueWriteback(addr, mode); });
    }
}

void
Pipeline::queueWriteback(Addr phys, pcm::WriteMode mode)
{
    Span span(tracer_, SpanKind::EnqueueWrite);
    writePath_->queueWriteback(phys, mode);
}

void
Pipeline::onPolicyRefresh(const monitor::RefreshRequest &req)
{
    // RefreshTimingMode::RateCorrected, as in sys::System.
    if ((refreshSeq_++ % timeScaleInt_) != 0)
        return;
    Span span(tracer_, SpanKind::EnqueueRefresh);
    writePath_->submitRefresh(req.blockAddr, req.mode);
}

double
Pipeline::refreshPressure() const
{
    if (writePath_->refreshOverflowPending())
        return 1.0;
    std::size_t deepest = 0;
    for (unsigned c = 0; c < controller_->numChannels(); ++c) {
        deepest = std::max(deepest,
                           controller_->channel(c).refreshQueueSize());
    }
    return static_cast<double>(deepest) /
           static_cast<double>(config_.memory.refreshQueueCap);
}

void
Pipeline::wakeCores()
{
    if (outstandingFills_ >= hierarchy_->llcMshrs() ||
        writePath_->writebackFull()) {
        return;
    }
    Span span(tracer_, SpanKind::Resume);
    for (auto &core : cores_)
        core->resume();
}

// ---------------------------------------------------------- stream replay

StreamTimes
streamReplay(const sys::SystemConfig &config,
             const std::vector<std::uint64_t> &records_per_core)
{
    // Cores interleave in blocks, as CoreModel's run-ahead quantum
    // does; each block is generated first (timed as trace) and then
    // looked up (timed as cache), with LLC misses filled at once and
    // their fill time taken back out of the lookup time.
    constexpr std::uint64_t block = 32;
    const unsigned cores = config.hierarchy.numCores;
    const std::uint64_t slice = config.memory.memoryBytes / cores;
    const double clock_ns = clockReadNs();

    cache::CacheHierarchy hierarchy(config.hierarchy);
    std::vector<trace::TraceSource> sources;
    Random seeder(config.seed);
    for (unsigned c = 0; c < cores; ++c) {
        sources.push_back(trace::TraceSource::generate(
            trace::benchmarkProfile(config.workload.perCore[c]),
            seeder.next()));
    }

    StreamTimes t;
    std::vector<std::uint64_t> left = records_per_core;
    std::vector<trace::TraceRecord> buf(block);
    bool any = true;
    while (any) {
        any = false;
        for (unsigned c = 0; c < cores; ++c) {
            const std::uint64_t n = std::min(block, left[c]);
            if (n == 0)
                continue;
            any = true;
            left[c] -= n;
            t.records += n;

            // Every interval below contains one clock read of its own;
            // each fill adds one more to the lookup interval.
            const std::int64_t g0 = nowNs();
            for (std::uint64_t i = 0; i < n; ++i)
                buf[i] = sources[c].next();
            const std::int64_t g1 = nowNs();
            t.traceNs += static_cast<double>(g1 - g0) - clock_ns;

            const Addr base = static_cast<Addr>(c) * slice;
            double fill_ns = 0.0;
            std::uint64_t fills = 0;
            const std::int64_t a0 = nowNs();
            for (std::uint64_t i = 0; i < n; ++i) {
                const bool is_write =
                    buf[i].type == trace::AccessType::Write;
                const auto ev =
                    hierarchy.access(c, base + buf[i].addr, is_write);
                if (ev.llcMiss) {
                    const std::int64_t f0 = nowNs();
                    hierarchy.fill(c, base + buf[i].addr, is_write);
                    fill_ns += static_cast<double>(nowNs() - f0);
                    ++fills;
                }
            }
            const std::int64_t a1 = nowNs();
            t.accessNs += static_cast<double>(a1 - a0) - fill_ns -
                          clock_ns * static_cast<double>(1 + fills);
        }
    }
    return t;
}

double
calibrateEventKernel(std::size_t depth)
{
    EmptyEvents empty(depth);
    constexpr std::uint64_t warm = 200000, timed = 1000000;
    const Tick until = maxTick - 1;
    empty.queue().run(until, warm);
    const std::int64_t t0 = nowNs();
    empty.queue().run(until, timed);
    const std::int64_t t1 = nowNs();
    return static_cast<double>(t1 - t0) / static_cast<double>(timed);
}

} // namespace perfbench
