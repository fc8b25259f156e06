/**
 * @file
 * Violation accounting and failure-policy dispatch for check.hh.
 */

#include "check.hh"

#include <array>
#include <atomic>
#include <cstdlib>
#include <execinfo.h>
#include <iostream>
#include <mutex>

#include "common/logging.hh"

namespace rrm::check
{

namespace
{

std::atomic<FailurePolicy> globalPolicy{FailurePolicy::Throw};

std::array<std::atomic<std::uint64_t>, numViolationKinds> counters{};

std::mutex lastMessageMutex;
std::string lastMessage; // guarded by lastMessageMutex

/** Count a violation and remember its message. */
void
record(ViolationKind kind, const std::string &message)
{
    counters[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(lastMessageMutex);
    lastMessage = message;
}

} // namespace

std::string_view
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::Check:
        return "check";
      case ViolationKind::DCheck:
        return "dcheck";
      case ViolationKind::Unreachable:
        return "unreachable";
      case ViolationKind::Audit:
        return "audit";
    }
    return "unknown";
}

FailurePolicy
failurePolicy()
{
    return globalPolicy.load(std::memory_order_relaxed);
}

void
setFailurePolicy(FailurePolicy policy)
{
    globalPolicy.store(policy, std::memory_order_relaxed);
}

std::uint64_t
violationCount(ViolationKind kind)
{
    return counters[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
}

std::uint64_t
totalViolations()
{
    std::uint64_t total = 0;
    for (const auto &c : counters)
        total += c.load(std::memory_order_relaxed);
    return total;
}

void
resetViolations()
{
    for (auto &c : counters)
        c.store(0, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(lastMessageMutex);
    lastMessage.clear();
}

std::string
lastViolationMessage()
{
    const std::lock_guard<std::mutex> lock(lastMessageMutex);
    return lastMessage;
}

namespace detail
{

void
reportViolation(ViolationKind kind, const std::string &message)
{
    record(kind, message);
    if (failurePolicy() == FailurePolicy::Abort) {
        std::cerr << message << '\n';
        void *frames[64];
        const int n = backtrace(frames, 64);
        backtrace_symbols_fd(frames, n, 2);
        std::abort();
    }
    throw CheckError(kind, message);
}

void
reportAuditViolation(const std::string &message)
{
    if (failurePolicy() != FailurePolicy::LogAndCount)
        reportViolation(ViolationKind::Audit, message);
    record(ViolationKind::Audit, message);
    warn(message);
}

} // namespace detail
} // namespace rrm::check
