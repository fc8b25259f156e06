/**
 * @file
 * Structured event tracing for the simulator.
 *
 * Components emit small, fixed-size numeric events through the
 * RRM_TRACE macro. Events carry a simulation tick, a category, a
 * static event name, and up to four (key, value) fields; they land in
 * a TraceSink, which counts each one and streams it to the writer the
 * sink was built with (JSONL, Perfetto, or both through a tee).
 *
 * Cost model: with no sink the macro is one pointer test, and its
 * field expressions are not evaluated.
 *
 * Field values are doubles: every quantity traced here (addresses
 * below a few GiB, counters, queue depths) is exactly representable
 * below 2^53.
 */

#ifndef RRM_OBS_TRACE_HH
#define RRM_OBS_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "common/units.hh"

namespace rrm::obs
{

/** Trace event categories; every writer prints the category name. */
enum class TraceCategory : std::uint32_t
{
    RrmLifecycle = 0, ///< RRM entry register/alloc/promote/decay/evict
    Refresh,          ///< refresh issue and completion
    Queue,            ///< controller queue occupancy changes
    Sampler,          ///< sampler self-reporting
    Fault,            ///< retention violations
    NumCategories,
};

/** Stable lower-case name of a category (e.g. "rrm", "refresh"). */
const char *traceCategoryName(TraceCategory c);

/** One trace event. POD-sized; passed by reference to the writer. */
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
 * Event collection point: counts every event and streams it to the
 * writer the sink was built with. Nothing is buffered, so nothing is
 * ever dropped.
 */
class TraceSink
{
  public:
    explicit TraceSink(std::unique_ptr<TraceWriter> writer);

    /** Count one event and write it. */
    void record(const TraceEvent &ev);

    /** Finalise the writer (e.g. the Perfetto JSON trailer). */
    void finishWriter() { writer_->finish(); }

    /** Events recorded over the sink's lifetime. */
    std::uint64_t recorded() const { return recorded_; }

  private:
    std::unique_ptr<TraceWriter> writer_;
    std::uint64_t recorded_ = 0;
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

/**
 * Emit a trace event into `sink` (a TraceSink*, may be null). Field
 * expressions are only evaluated when the sink is non-null.
 */
#define RRM_TRACE(sink, tick, category, name, ...)                          \
    do {                                                                    \
        ::rrm::obs::TraceSink *rrm_trace_sink_ = (sink);                    \
        if (rrm_trace_sink_) {                                              \
            rrm_trace_sink_->record(::rrm::obs::makeTraceEvent(             \
                (tick), (category), (name), ##__VA_ARGS__));                \
        }                                                                   \
    } while (0)

#endif // RRM_OBS_TRACE_HH
