/**
 * @file
 * Implementation of the warn/inform output and the warn_once registry.
 */

#include "logging.hh"

#include <iostream>
#include <mutex>
#include <unordered_set>

namespace rrm
{
namespace log_detail
{

namespace
{

/**
 * One pre-formatted line, so a message is one write and concurrent
 * runner workers cannot interleave fragments of their lines.
 */
std::string
prefixedLine(const char *prefix, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 8);
    line += prefix;
    line += msg;
    line += '\n';
    return line;
}

} // namespace

void
emitWarn(const std::string &msg)
{
    std::cerr << prefixedLine("warn: ", msg);
}

void
emitInform(const std::string &msg)
{
    std::cout << prefixedLine("info: ", msg);
}

bool
shouldWarnOnce(const std::string &category)
{
    static std::mutex mutex;
    static std::unordered_set<std::string> seen;
    std::lock_guard<std::mutex> lock(mutex);
    return seen.insert(category).second;
}

} // namespace log_detail
} // namespace rrm
