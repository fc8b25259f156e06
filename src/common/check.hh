/**
 * @file
 * Contract-checking framework: the simulator's one assertion system.
 *
 * Four macro families, each counted per kind in violation counters
 * that the stats package exports (see stats/check_stats.hh):
 *
 *  - RRM_CHECK(cond, ...):   always-on invariant; the workhorse.
 *  - RRM_DCHECK(cond, ...):  debug-only (compiled out under NDEBUG
 *                            unless RRM_FORCE_DCHECKS is defined);
 *                            for conditions that themselves walk a
 *                            structure on a per-access path.
 *  - RRM_UNREACHABLE(...):   marks impossible control flow; may end a
 *                            non-void function.
 *  - RRM_AUDIT(cond, ...):   used inside Auditable::audit()
 *                            implementations; counted in its own
 *                            category so periodic deep audits are
 *                            separable from inline contract failures.
 *
 * The three inline contracts (CHECK, DCHECK, UNREACHABLE) never return
 * on failure: they record the violation, then throw CheckError, or
 * abort under FailurePolicy::Abort. Only RRM_AUDIT may count and
 * continue, under FailurePolicy::LogAndCount. A user error (bad
 * configuration or input) is not a contract: it goes through fatal()
 * in common/logging.hh.
 */

#ifndef RRM_COMMON_CHECK_HH
#define RRM_COMMON_CHECK_HH

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rrm::check
{

/** What a failed contract does. */
enum class FailurePolicy : std::uint8_t
{
    /** Print the violation and abort() (with a backtrace). */
    Abort = 0,

    /** Throw CheckError (default; tests assert on it). */
    Throw,

    /**
     * RRM_AUDIT only: record the violation in its counter, warn, and
     * continue, so one audit round reports every broken invariant.
     * The inline contracts throw CheckError as under Throw.
     */
    LogAndCount,
};

/** Violation categories, each with its own counter. */
enum class ViolationKind : std::uint8_t
{
    Check = 0,
    DCheck,
    Unreachable,
    Audit,
};

inline constexpr std::size_t numViolationKinds = 4;

/** Stable name for a violation kind ("check", "audit", ...). */
std::string_view violationKindName(ViolationKind kind);

/** Error thrown by a failed contract unless the policy is Abort. */
class CheckError : public std::logic_error
{
  public:
    CheckError(ViolationKind kind, const std::string &msg)
        : std::logic_error(msg), kind_(kind)
    {}

    ViolationKind kind() const { return kind_; }

  private:
    ViolationKind kind_;
};

/** @{ Global failure policy (process-wide; tests save/restore). */
FailurePolicy failurePolicy();
void setFailurePolicy(FailurePolicy policy);
/** @} */

/** RAII save/restore of the global failure policy. */
class ScopedFailurePolicy
{
  public:
    explicit ScopedFailurePolicy(FailurePolicy policy)
        : saved_(failurePolicy())
    {
        setFailurePolicy(policy);
    }

    ~ScopedFailurePolicy() { setFailurePolicy(saved_); }

    ScopedFailurePolicy(const ScopedFailurePolicy &) = delete;
    ScopedFailurePolicy &operator=(const ScopedFailurePolicy &) = delete;

  private:
    FailurePolicy saved_;
};

/** @{ Violation counters (monotonic until resetViolations()). */
std::uint64_t violationCount(ViolationKind kind);
std::uint64_t totalViolations();
void resetViolations();
/** @} */

/** Message of the most recent violation ("" if none since reset). */
std::string lastViolationMessage();

/** True if RRM_DCHECK is compiled in for this build. */
constexpr bool
dchecksEnabled()
{
#if !defined(NDEBUG) || defined(RRM_FORCE_DCHECKS)
    return true;
#else
    return false;
#endif
}

namespace detail
{

/**
 * Record a violation, then throw CheckError, or abort under
 * FailurePolicy::Abort: the failure path of the inline contracts.
 */
[[noreturn]] void reportViolation(ViolationKind kind,
                                  const std::string &message);

/**
 * Record an audit violation; warn and return under
 * FailurePolicy::LogAndCount, otherwise fail as reportViolation().
 */
void reportAuditViolation(const std::string &message);

/** Build "<kind> failed: '<expr>' at file:line[: detail]". */
template <typename... Args>
std::string
formatViolation(ViolationKind kind, const char *expr, const char *file,
                int line, Args &&...args)
{
    std::ostringstream os;
    os << violationKindName(kind) << " failed: '" << expr << "' at "
       << file << ":" << line;
    if constexpr (sizeof...(Args) > 0) {
        os << ": ";
        (os << ... << std::forward<Args>(args));
    }
    return os.str();
}

template <typename... Args>
[[noreturn]] void
fail(ViolationKind kind, const char *expr, const char *file, int line,
     Args &&...args)
{
    reportViolation(kind, formatViolation(kind, expr, file, line,
                                          std::forward<Args>(args)...));
}

} // namespace detail
} // namespace rrm::check

/** Always-on contract; never returns on failure. */
#define RRM_CHECK(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::rrm::check::detail::fail(                                     \
                ::rrm::check::ViolationKind::Check, #cond, __FILE__,        \
                __LINE__, ##__VA_ARGS__);                                   \
        }                                                                   \
    } while (0)

/** Debug-only contract; vanishes under NDEBUG (sans RRM_FORCE_DCHECKS). */
#if !defined(NDEBUG) || defined(RRM_FORCE_DCHECKS)
#define RRM_DCHECK(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::rrm::check::detail::fail(                                     \
                ::rrm::check::ViolationKind::DCheck, #cond, __FILE__,       \
                __LINE__, ##__VA_ARGS__);                                   \
        }                                                                   \
    } while (0)
#else
#define RRM_DCHECK(cond, ...)                                               \
    do {                                                                    \
        if (false) {                                                        \
            (void)(cond);                                                   \
        }                                                                   \
    } while (0)
#endif

/** Impossible control flow; throws or aborts (never returns). */
#define RRM_UNREACHABLE(...)                                                \
    ::rrm::check::detail::fail(::rrm::check::ViolationKind::Unreachable,    \
                               "unreachable", __FILE__, __LINE__,           \
                               ##__VA_ARGS__)

/**
 * Deep-audit contract; use inside Auditable::audit() bodies. The only
 * contract that returns on failure (under FailurePolicy::LogAndCount).
 */
#define RRM_AUDIT(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::rrm::check::detail::reportAuditViolation(                     \
                ::rrm::check::detail::formatViolation(                      \
                    ::rrm::check::ViolationKind::Audit, #cond, __FILE__,    \
                    __LINE__, ##__VA_ARGS__));                              \
        }                                                                   \
    } while (0)

#endif // RRM_COMMON_CHECK_HH
