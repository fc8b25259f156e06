/**
 * @file
 * Structured event tracing for the simulator.
 *
 * Components emit small, fixed-size numeric events through the
 * RRM_TRACE macro. Events carry a simulation tick, a category, a
 * static event name, and up to four (key, value) fields; they land in
 * a TraceSink, which either streams them to an attached TraceWriter
 * (JSONL, Perfetto, or both through a tee) or buffers them in a
 * bounded ring that keeps the most recent events and counts the
 * overwritten ones.
 *
 * Cost model: with no sink attached the macro is one pointer test;
 * with a sink but the category masked off it is one pointer test plus
 * one bitmask test — field expressions are never evaluated. Compiling
 * with -DRRM_TRACE_DISABLED removes the macro body entirely so traced
 * hot paths carry zero overhead.
 *
 * Field values are doubles: every quantity traced here (addresses
 * below a few GiB, counters, queue depths) is exactly representable
 * below 2^53.
 */

#ifndef RRM_OBS_TRACE_HH
#define RRM_OBS_TRACE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>

#include "common/units.hh"

namespace rrm::obs
{

/** Trace event categories; each is one bit in the sink's mask. */
enum class TraceCategory : std::uint32_t
{
    RrmLifecycle = 0, ///< RRM entry register/alloc/promote/decay/evict
    Refresh,          ///< refresh issue and completion
    Queue,            ///< controller queue occupancy changes
    Sampler,          ///< sampler self-reporting
    Fault,            ///< fault injection, violations, degradation
    NumCategories,
};

/** Bitmask bit of one category. */
constexpr std::uint32_t
traceBit(TraceCategory c)
{
    return 1u << static_cast<std::uint32_t>(c);
}

/** Mask enabling every category. */
constexpr std::uint32_t traceAllCategories =
    (1u << static_cast<std::uint32_t>(TraceCategory::NumCategories)) - 1;

/** Stable lower-case name of a category (e.g. "rrm", "refresh"). */
const char *traceCategoryName(TraceCategory c);

/** One trace event. POD-sized; copied by value into the ring. */
struct TraceEvent
{
    /** One numeric field. A null key marks an unused slot. */
    struct Field
    {
        const char *key = nullptr;
        double value = 0.0;
    };

    static constexpr std::size_t maxFields = 4;

    Tick tick = 0;
    TraceCategory category = TraceCategory::RrmLifecycle;
    const char *name = nullptr;
    std::array<Field, maxFields> fields{};

    /** Number of populated fields (leading non-null keys). */
    std::size_t
    numFields() const
    {
        std::size_t n = 0;
        while (n < maxFields && fields[n].key)
            ++n;
        return n;
    }
};

/** Build an event from up to four fields (used by RRM_TRACE). */
inline TraceEvent
makeTraceEvent(Tick tick, TraceCategory category, const char *name,
               TraceEvent::Field f0 = {}, TraceEvent::Field f1 = {},
               TraceEvent::Field f2 = {}, TraceEvent::Field f3 = {})
{
    TraceEvent ev;
    ev.tick = tick;
    ev.category = category;
    ev.name = name;
    ev.fields = {f0, f1, f2, f3};
    return ev;
}

/** Output backend for trace events. */
class TraceWriter
{
  public:
    virtual ~TraceWriter() = default;

    virtual void write(const TraceEvent &ev) = 0;

    /**
     * Finalise the output (formats with a trailer, e.g. the Perfetto
     * JSON array close, override this). Must be idempotent; events
     * written afterwards may be dropped. Default: no-op.
     */
    virtual void finish() {}
};

/** Fans one event stream out to two writers (e.g. JSONL + Perfetto). */
class TeeTraceWriter : public TraceWriter
{
  public:
    TeeTraceWriter(std::unique_ptr<TraceWriter> a,
                   std::unique_ptr<TraceWriter> b);

    void write(const TraceEvent &ev) override;
    void finish() override;

  private:
    std::unique_ptr<TraceWriter> a_;
    std::unique_ptr<TraceWriter> b_;
};

/** One JSON object per line (JSONL). */
class JsonlTraceWriter : public TraceWriter
{
  public:
    explicit JsonlTraceWriter(std::ostream &os) : os_(os) {}

    void write(const TraceEvent &ev) override;

  private:
    std::ostream &os_;
};

/**
 * Event collection point.
 *
 * Buffering model: while no writer is attached, record() appends to a
 * bounded ring that keeps the most recent `capacity` events; each
 * event the ring pushes out increments dropped(). Once a writer is
 * attached (setWriter), buffered events are flushed to it and
 * subsequent events stream through directly, so a long run with a
 * file writer never drops anything.
 */
class TraceSink
{
  public:
    explicit TraceSink(std::size_t capacity = 4096,
                       std::uint32_t categories = traceAllCategories);

    /** True if events of this category are collected. */
    bool
    enabled(TraceCategory c) const
    {
        return (categoryMask_ & traceBit(c)) != 0;
    }

    std::uint32_t categoryMask() const { return categoryMask_; }
    void setCategoryMask(std::uint32_t mask) { categoryMask_ = mask; }

    /** Attach a writer (flushes the ring into it); null detaches. */
    void setWriter(std::unique_ptr<TraceWriter> writer);

    /** Record one event (callers should gate on enabled()). */
    void record(const TraceEvent &ev);

    /** Drain buffered events to the writer, if one is attached. */
    void flush();

    /** flush() then finalise the writer (Perfetto JSON trailer). */
    void finishWriter();

    /** Events accepted over the sink's lifetime. */
    std::uint64_t recorded() const { return recorded_; }

    /** Events pushed out of the ring before any writer saw them. */
    std::uint64_t dropped() const { return dropped_; }

    /** @{ Ring introspection (tests / post-run inspection). */
    std::size_t capacity() const { return capacity_; }
    std::size_t bufferedCount() const { return ring_.size(); }
    const TraceEvent &buffered(std::size_t i) const { return ring_.at(i); }
    /** @} */

  private:
    std::size_t capacity_;
    std::uint32_t categoryMask_;
    std::deque<TraceEvent> ring_;
    std::unique_ptr<TraceWriter> writer_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

/**
 * Open `path` and return a streaming JSONL writer that owns the file
 * stream. fatal() if the file cannot be opened.
 */
std::unique_ptr<TraceWriter> openTraceFile(const std::string &path);

} // namespace rrm::obs

/** Shorthand for a trace field; parentheses keep macro commas safe. */
#define RRM_TF(key, val)                                                    \
    ::rrm::obs::TraceEvent::Field                                           \
    {                                                                       \
        (key), static_cast<double>(val)                                     \
    }

#ifndef RRM_TRACE_DISABLED
/**
 * Emit a trace event into `sink` (a TraceSink*, may be null) if the
 * category is enabled. Field expressions are only evaluated when the
 * event is actually recorded.
 */
#define RRM_TRACE(sink, tick, category, name, ...)                          \
    do {                                                                    \
        ::rrm::obs::TraceSink *rrm_trace_sink_ = (sink);                    \
        if (rrm_trace_sink_ && rrm_trace_sink_->enabled(category)) {        \
            rrm_trace_sink_->record(::rrm::obs::makeTraceEvent(             \
                (tick), (category), (name), ##__VA_ARGS__));                \
        }                                                                   \
    } while (0)
#else
#define RRM_TRACE(sink, tick, category, name, ...)                          \
    do {                                                                    \
    } while (0)
#endif

#endif // RRM_OBS_TRACE_HH
