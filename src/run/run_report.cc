/**
 * @file
 * RunReport implementation.
 */

#include "run_report.hh"

#include "common/logging.hh"

namespace rrm::run
{

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::Failed:
        return "failed";
      case RunStatus::Cancelled:
        return "cancelled";
      case RunStatus::TimedOut:
        return "timed-out";
      case RunStatus::Interrupted:
        return "interrupted";
    }
    return "unknown";
}

std::size_t
RunReport::completedCount() const
{
    std::size_t n = 0;
    for (const auto &r : runs)
        n += r.status == RunStatus::Ok;
    return n;
}

std::size_t
RunReport::failedCount() const
{
    std::size_t n = 0;
    for (const auto &r : runs)
        n += r.status == RunStatus::Failed;
    return n;
}

std::size_t
RunReport::cancelledCount() const
{
    std::size_t n = 0;
    for (const auto &r : runs)
        n += r.status == RunStatus::Cancelled;
    return n;
}

std::size_t
RunReport::timedOutCount() const
{
    std::size_t n = 0;
    for (const auto &r : runs)
        n += r.status == RunStatus::TimedOut;
    return n;
}

std::size_t
RunReport::interruptedCount() const
{
    std::size_t n = 0;
    for (const auto &r : runs)
        n += r.status == RunStatus::Interrupted;
    return n;
}

std::size_t
RunReport::slowestRunIndex() const
{
    std::size_t slowest = std::string::npos;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].status != RunStatus::Ok)
            continue;
        if (slowest == std::string::npos ||
            runs[i].wallSeconds > runs[slowest].wallSeconds) {
            slowest = i;
        }
    }
    return slowest;
}

const RunResult *
RunReport::find(const std::string &id) const
{
    for (const auto &r : runs) {
        if (r.id == id)
            return &r;
    }
    return nullptr;
}

std::vector<sys::SimResults>
RunReport::okResults() const
{
    std::vector<sys::SimResults> out;
    out.reserve(runs.size());
    for (const auto &r : runs) {
        if (r.status != RunStatus::Ok)
            fatal("run ", r.id, " is ", runStatusName(r.status),
                  r.error.empty() ? "" : ": ", r.error);
        out.push_back(r.results);
    }
    return out;
}

std::string
RunReport::failureSummary() const
{
    std::string out;
    for (const auto &r : runs) {
        if (r.status == RunStatus::Ok)
            continue;
        out += (out.empty() ? "" : "; ") + r.id + " " +
               runStatusName(r.status);
        if (!r.error.empty())
            out += " (" + r.error + ")";
    }
    return out;
}

} // namespace rrm::run
