/**
 * @file
 * Canonical scheme naming, the name -> scheme round-trip, and the
 * scheme -> write-policy factory.
 */

#include "scheme.hh"

#include <cctype>
#include <sstream>

#include "common/logging.hh"
#include "policy/adaptive_rrm_policy.hh"
#include "policy/static_policy.hh"
#include "policy/tenant_qos_policy.hh"
#include "rrm/rrm_config.hh"

namespace rrm::sys
{

namespace
{

/** Case-insensitive ASCII string equality. */
bool
equalsIgnoreCase(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

} // namespace

std::string
Scheme::name() const
{
    switch (kind) {
      case SchemeKind::Rrm:
        return "RRM";
      case SchemeKind::AdaptiveRrm:
        return "Adaptive-RRM";
      case SchemeKind::RrmQos:
        return "RRM-QoS";
      case SchemeKind::Static:
        break;
    }
    return "Static-" +
           std::to_string(pcm::setIterations(staticMode)) + "-SETs";
}

std::unique_ptr<policy::WritePolicy>
Scheme::makePolicy(const monitor::RrmConfig &rrm,
                   const policy::AdaptiveRrmConfig & /*adaptive*/,
                   const policy::TenantQosConfig & /*qos*/,
                   const policy::TenantLayout &layout,
                   EventQueue &queue) const
{
    switch (kind) {
      case SchemeKind::Static:
        return std::make_unique<policy::StaticPolicy>(staticMode);
      case SchemeKind::Rrm:
        return std::make_unique<policy::RrmPolicy>(rrm, queue);
      case SchemeKind::AdaptiveRrm:
        return std::make_unique<policy::AdaptiveRrmPolicy>(rrm, queue);
      case SchemeKind::RrmQos:
        return std::make_unique<policy::TenantQosPolicy>(
            std::make_unique<policy::RrmPolicy>(rrm, queue), layout, queue);
    }
    fatal("scheme has corrupt kind ", static_cast<int>(kind));
}

void
Scheme::collectConfigErrors(const monitor::RrmConfig &rrm,
                            double time_scale,
                            std::vector<std::string> &errors) const
{
    if (usesMonitor()) {
        monitor::RrmConfig effective = rrm;
        effective.timeScale = time_scale >= 1.0 ? time_scale : 1.0;
        effective.collectErrors(errors);
    } else if (rrm.isCustomized()) {
        errors.push_back("RRM configured but the scheme is " + name() +
                         " (RRM settings would be silently ignored)");
    }
}

bool
operator==(const Scheme &a, const Scheme &b)
{
    if (a.kind != b.kind)
        return false;
    return a.kind != SchemeKind::Static || a.staticMode == b.staticMode;
}

Scheme
parseScheme(const std::string &name)
{
    for (const Scheme &s : allSchemes()) {
        if (equalsIgnoreCase(s.name(), name))
            return s;
    }
    std::ostringstream valid;
    for (const Scheme &s : allSchemes())
        valid << (valid.tellp() > 0 ? ", " : "") << s.name();
    fatal("unknown scheme '", name, "' (valid: ", valid.str(), ")");
}

std::vector<Scheme>
allPaperSchemes()
{
    std::vector<Scheme> v;
    for (auto it = pcm::allWriteModes.rbegin();
         it != pcm::allWriteModes.rend(); ++it) {
        v.push_back(Scheme::staticScheme(*it));
    }
    v.push_back(Scheme::rrmScheme());
    return v;
}

std::vector<Scheme>
allSchemes()
{
    auto v = allPaperSchemes();
    v.push_back(Scheme::adaptiveRrmScheme());
    v.push_back(Scheme::rrmQosScheme());
    return v;
}

std::vector<Scheme>
staticSchemes()
{
    auto v = allPaperSchemes();
    v.pop_back();
    return v;
}

} // namespace rrm::sys
