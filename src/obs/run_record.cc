/**
 * @file
 * Run-record metadata implementation.
 */

#include "run_record.hh"

#include <chrono>
#include <cstdlib>
#include <ctime>

namespace rrm::obs
{

std::int64_t
wallClockSeconds()
{
    if (const char *epoch = std::getenv("SOURCE_DATE_EPOCH"))
        return static_cast<std::int64_t>(std::atoll(epoch));
    // rrm-lint: allow(det-wall-clock) the single sanctioned wall-clock
    // read; SOURCE_DATE_EPOCH above overrides it for reproducible runs
    return static_cast<std::int64_t>(std::time(nullptr));
}

double
monotonicSeconds()
{
    if (std::getenv("SOURCE_DATE_EPOCH") != nullptr)
        return 0.0;
    return steadySeconds();
}

double
steadySeconds()
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

RunMetadata
currentRunMetadata()
{
    RunMetadata meta;
#ifdef RRM_GIT_DESCRIBE
    meta.gitDescribe = RRM_GIT_DESCRIBE;
#else
    meta.gitDescribe = "unknown";
#endif
    const auto now = static_cast<std::time_t>(wallClockSeconds());
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc)) {
        char buf[32];
        if (std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ",
                          &tm_utc)) {
            meta.timestampUtc = buf;
        }
    }
    return meta;
}

void
writeRunMetadata(JsonWriter &json, const RunMetadata &meta)
{
    json.beginObject();
    json.field("tool", meta.tool);
    json.field("gitDescribe", meta.gitDescribe);
    json.field("timestampUtc", meta.timestampUtc);
    json.endObject();
}

} // namespace rrm::obs
