/**
 * @file
 * Chrome-trace / Perfetto JSON export of the RRM_TRACE stream.
 *
 * PerfettoTraceWriter renders trace events into the Chrome trace
 * event format (the JSON flavour ui.perfetto.dev opens directly),
 * mapping the stream onto a deterministic track taxonomy:
 *
 *  - channel busy windows: "readService" / "writeService" /
 *    "refreshService" events (emitted by memctrl::Channel at issue
 *    time with a known duration) become complete ("X") slices on one
 *    track per channel;
 *  - queue pressure: "readEnq" / "writeEnq" / "refreshEnq" events
 *    become counter ("C") series per channel;
 *  - core progress: "coreProgress" events become one instruction
 *    counter ("C") series per core, and "tenantRefreshQ" events one
 *    outstanding-refresh counter series per tenant (both emitted on
 *    the sampling cadence by the System's sample hook);
 *  - decay epochs: consecutive sampler "sample" events bound "epoch"
 *    slices on a dedicated track (one slice per settled decay epoch);
 *  - everything else (RRM lifecycle, refresh drains, retention
 *    violations): thread-scoped instants on one track per trace
 *    category, args carrying the event fields.
 *
 * Timestamps are microseconds of simulated time, so two seeded runs
 * export byte-identical traces. The trailer is written by finish()
 * (idempotent; also invoked from the destructor), which TraceSink
 * forwards through finishWriter() at end of run.
 */

#ifndef RRM_OBS_PERFETTO_HH
#define RRM_OBS_PERFETTO_HH

#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "obs/trace.hh"

namespace rrm::obs
{

/** Streams trace events as Chrome trace JSON (see file comment). */
class PerfettoTraceWriter : public TraceWriter
{
  public:
    explicit PerfettoTraceWriter(std::ostream &os);
    ~PerfettoTraceWriter() override;

    void write(const TraceEvent &ev) override;

    /** Write the JSON trailer; further write() calls are ignored. */
    void finish() override;

  private:
    /** Start one event object ("," separator + shared fields). */
    void beginEvent(const char *name, const char *cat, char phase,
                    double ts_us);
    void writeArgs(const TraceEvent &ev, std::size_t first_field);
    /** Emit the thread_name metadata record once per track. */
    void nameTrack(int tid, const std::string &name);
    static double toMicros(Tick tick);

    std::ostream &os_;
    bool first_ = true;
    bool finished_ = false;
    /** Tids that already carry a thread_name metadata record. */
    std::set<int> namedTracks_;
    /** Previous sampler tick bounding the current decay epoch. */
    Tick lastSampleTick_ = 0;
    bool haveSample_ = false;
};

/**
 * Open `path` and return a Perfetto writer owning the file stream.
 * fatal() if the file cannot be opened.
 */
std::unique_ptr<TraceWriter> openPerfettoFile(const std::string &path);

} // namespace rrm::obs

#endif // RRM_OBS_PERFETTO_HH
