/**
 * @file
 * gem5-style status and error reporting.
 *
 * Severity model (after gem5's base/logging.hh):
 *  - fatal():  the user asked for something impossible (bad config).
 *              Throws FatalError.
 *  - warn():   something questionable happened but simulation continues.
 *  - inform(): plain status output.
 *
 * A violated internal invariant is a simulator bug, not a log message:
 * it goes through the RRM_CHECK family in common/check.hh.
 */

#ifndef RRM_COMMON_LOGGING_HH
#define RRM_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace rrm
{

/** Error thrown by fatal(): user-caused, unrecoverable condition. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace log_detail
{

/** Concatenate a parameter pack into one message string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/** Write "warn: <msg>\n" to stderr in one write. */
void emitWarn(const std::string &msg);

/** Write "info: <msg>\n" to stdout in one write. */
void emitInform(const std::string &msg);

/** True if `category` has not warned before (and mark it). */
bool shouldWarnOnce(const std::string &category);

} // namespace log_detail

/** Report an unrecoverable user error (bad configuration, etc.). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(
        "fatal: " + log_detail::concat(std::forward<Args>(args)...));
}

/** Warn about a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    log_detail::emitWarn(log_detail::concat(std::forward<Args>(args)...));
}

/** Emit a normal status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    log_detail::emitInform(log_detail::concat(std::forward<Args>(args)...));
}

/**
 * Warn at most once per `category` for the process lifetime (e.g.
 * per-feature "this configuration is approximate" notes that would
 * otherwise flood a sweep). The category string is prepended to the
 * message.
 */
template <typename... Args>
void
warn_once(const std::string &category, Args &&...args)
{
    if (!log_detail::shouldWarnOnce(category))
        return;
    warn(category, ": ",
         log_detail::concat(std::forward<Args>(args)...));
}

} // namespace rrm

#endif // RRM_COMMON_LOGGING_HH
