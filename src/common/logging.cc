/**
 * @file
 * Implementation of the warn/inform output sinks.
 */

#include "logging.hh"

#include <atomic>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <unordered_set>

namespace rrm
{
namespace log_detail
{

namespace
{

std::atomic<std::uint64_t> warnCounter{0};
std::atomic<bool> quietMode{false};
std::atomic<int> minSeverity{static_cast<int>(LogSeverity::Info)};

/** Guards the sink and the warn_once registry. */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

LogSink &
sinkSlot()
{
    static LogSink sink;
    return sink;
}

std::unordered_set<std::string> &
warnOnceSeen()
{
    static std::unordered_set<std::string> seen;
    return seen;
}

void
defaultSink(LogSeverity severity, const std::string &msg)
{
    // One pre-formatted write per message so concurrent runner
    // workers cannot interleave fragments of their lines.
    std::string line;
    line.reserve(msg.size() + 8);
    line += severity == LogSeverity::Warn ? "warn: " : "info: ";
    line += msg;
    line += '\n';
    if (severity == LogSeverity::Warn)
        std::cerr << line;
    else
        std::cout << line;
}

/**
 * Apply quiet mode and the severity filter, then route to a sink.
 * The sink runs under the log mutex, so concurrent emitters are
 * serialized; sinks must not call back into the log functions.
 */
void
dispatch(LogSeverity severity, const std::string &msg)
{
    if (quietMode.load(std::memory_order_relaxed))
        return;
    if (static_cast<int>(severity) <
        minSeverity.load(std::memory_order_relaxed)) {
        return;
    }
    std::lock_guard<std::mutex> lock(logMutex());
    const LogSink &sink = sinkSlot();
    if (sink)
        sink(severity, msg);
    else
        defaultSink(severity, msg);
}

} // namespace

void
emitWarn(const std::string &msg)
{
    warnCounter.fetch_add(1, std::memory_order_relaxed);
    dispatch(LogSeverity::Warn, msg);
}

void
emitInform(const std::string &msg)
{
    dispatch(LogSeverity::Info, msg);
}

bool
shouldWarnOnce(const std::string &category)
{
    std::lock_guard<std::mutex> lock(logMutex());
    return warnOnceSeen().insert(category).second;
}

void
resetWarnOnce()
{
    std::lock_guard<std::mutex> lock(logMutex());
    warnOnceSeen().clear();
}

std::uint64_t
warnCount()
{
    return warnCounter.load(std::memory_order_relaxed);
}

void
setQuiet(bool quiet)
{
    quietMode.store(quiet, std::memory_order_relaxed);
}

void
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(logMutex());
    sinkSlot() = std::move(sink);
}

void
setMinSeverity(LogSeverity min)
{
    minSeverity.store(static_cast<int>(min), std::memory_order_relaxed);
}

} // namespace log_detail
} // namespace rrm
