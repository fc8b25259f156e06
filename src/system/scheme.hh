/**
 * @file
 * The evaluated write-management schemes (paper Table VI, plus the
 * adaptive extension).
 *
 * Scheme names are a first-class, canonical API: name() produces the
 * label every table, report, and per-run output file uses
 * ("Static-7-SETs" ... "Static-3-SETs", "RRM", "Adaptive-RRM"), and
 * parseScheme() inverts it (case-insensitively), so callers never
 * maintain their own label tables.
 *
 * A Scheme is also the *factory* for the write policy that realises
 * it: makePolicy() is the only place a SchemeKind is mapped to
 * behaviour — the rest of the simulator talks to the
 * policy::WritePolicy interface and never branches on the kind.
 */

#ifndef RRM_SYSTEM_SCHEME_HH
#define RRM_SYSTEM_SCHEME_HH

#include <memory>
#include <string>
#include <vector>

#include "pcm/write_mode.hh"
#include "rrm/rrm_config.hh"

namespace rrm
{
class EventQueue;

namespace policy
{
class WritePolicy;
struct AdaptiveRrmConfig;
struct TenantQosConfig;
struct TenantLayout;
} // namespace policy
} // namespace rrm

namespace rrm::sys
{

/** Scheme family. */
enum class SchemeKind : std::uint8_t
{
    Static = 0,  ///< Static-N-SETs: one global write mode
    Rrm,         ///< Region Retention Monitor hybrid
    AdaptiveRrm, ///< RRM with feedback-driven hot_threshold
    RrmQos,      ///< RRM behind a tenant-quota QoS decorator
};

/** One evaluated scheme. */
struct Scheme
{
    SchemeKind kind = SchemeKind::Static;

    /** Write mode of a Static scheme (ignored otherwise). */
    pcm::WriteMode staticMode = pcm::WriteMode::Sets7;

    /** "Static-7-SETs" ... "Static-3-SETs". */
    static Scheme
    staticScheme(pcm::WriteMode mode)
    {
        Scheme s;
        s.kind = SchemeKind::Static;
        s.staticMode = mode;
        return s;
    }

    /** The RRM hybrid scheme. */
    static Scheme
    rrmScheme()
    {
        Scheme s;
        s.kind = SchemeKind::Rrm;
        return s;
    }

    /** The adaptive RRM scheme. */
    static Scheme
    adaptiveRrmScheme()
    {
        Scheme s;
        s.kind = SchemeKind::AdaptiveRrm;
        return s;
    }

    /** The tenant-aware QoS scheme (RRM + per-tenant quotas). */
    static Scheme
    rrmQosScheme()
    {
        Scheme s;
        s.kind = SchemeKind::RrmQos;
        return s;
    }

    /** True for the schemes whose policy owns a RegionMonitor. */
    bool usesMonitor() const { return kind != SchemeKind::Static; }

    /**
     * Write mode whose retention sets the global self-refresh
     * interval: the static mode, or the RRM's slow mode (7-SETs).
     */
    pcm::WriteMode
    globalRefreshMode() const
    {
        return kind == SchemeKind::Static ? staticMode
                                          : monitor::RrmConfig::slowMode;
    }

    /** Canonical name; parseScheme() inverts it exactly. */
    std::string name() const;

    /**
     * Build the write policy realising this scheme — the single
     * SchemeKind -> behaviour mapping in the codebase.
     *
     * @param rrm      RRM configuration (monitor-backed schemes).
     * @param adaptive Feedback-law constants (Adaptive-RRM); unread,
     *                 the policy takes them from the type.
     * @param qos      Tenant-quota constants (RRM-QoS); unread, as
     *                 `adaptive`.
     * @param layout   Tenant/address layout (RRM-QoS only).
     * @param queue    Event queue for the policy's periodic tasks.
     */
    std::unique_ptr<policy::WritePolicy>
    makePolicy(const monitor::RrmConfig &rrm,
               const policy::AdaptiveRrmConfig &adaptive,
               const policy::TenantQosConfig &qos,
               const policy::TenantLayout &layout,
               EventQueue &queue) const;

    /**
     * Append one message per scheme-dependent configuration problem:
     * monitor-backed schemes validate `rrm`; static schemes reject a
     * customised RRM config that would be silently ignored.
     */
    void collectConfigErrors(const monitor::RrmConfig &rrm,
                             double time_scale,
                             std::vector<std::string> &errors) const;
};

/** @{ Value equality (monitor schemes ignore staticMode). */
bool operator==(const Scheme &a, const Scheme &b);
inline bool
operator!=(const Scheme &a, const Scheme &b)
{
    return !(a == b);
}
/** @} */

/**
 * Parse a scheme name ("RRM", "Static-5-SETs", "Adaptive-RRM") back
 * into the scheme it names, ignoring case: parseScheme(s.name()) == s
 * for every scheme. fatal() on any other string, listing every valid
 * name.
 */
Scheme parseScheme(const std::string &name);

/** All six schemes of Table VI, Static-7 first, RRM last. */
std::vector<Scheme> allPaperSchemes();

/** Every scheme: Table VI order, then Adaptive-RRM, then RRM-QoS. */
std::vector<Scheme> allSchemes();

/** The five static schemes, Static-7 first. */
std::vector<Scheme> staticSchemes();

} // namespace rrm::sys

#endif // RRM_SYSTEM_SCHEME_HH
