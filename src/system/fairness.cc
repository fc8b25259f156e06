/**
 * @file
 * Multi-tenant fairness metric computation.
 */

#include "fairness.hh"

#include <algorithm>

#include "common/check.hh"

namespace rrm::sys
{

FairnessReport
computeFairness(const std::vector<double> &mixed_ipc,
                const std::vector<unsigned> &tenant_of,
                const std::vector<double> &solo_ipc)
{
    RRM_CHECK(solo_ipc.size() == mixed_ipc.size(),
              "fairness: solo IPC vector size ", solo_ipc.size(),
              " != core count ", mixed_ipc.size());
    RRM_CHECK(tenant_of.empty() || tenant_of.size() == mixed_ipc.size(),
              "fairness: tenant map size ", tenant_of.size(),
              " != core count ", mixed_ipc.size());

    unsigned num_tenants = 1;
    for (const unsigned t : tenant_of)
        num_tenants = std::max(num_tenants, t + 1);

    FairnessReport report;
    report.tenants.resize(num_tenants);
    std::vector<unsigned> rated(num_tenants, 0);

    for (std::size_t c = 0; c < mixed_ipc.size(); ++c) {
        const unsigned t = tenant_of.empty() ? 0u : tenant_of[c];
        FairnessReport::Tenant &tr = report.tenants[t];
        tr.tenant = t;
        tr.cores.push_back(static_cast<unsigned>(c));
        tr.ipc += mixed_ipc[c];
        if (solo_ipc[c] <= 0.0 || mixed_ipc[c] <= 0.0)
            continue;
        tr.slowdown += solo_ipc[c] / mixed_ipc[c];
        tr.weightedSpeedup += mixed_ipc[c] / solo_ipc[c];
        ++rated[t];
    }

    double min_slowdown = 0.0;
    double max_slowdown = 0.0;
    for (unsigned t = 0; t < num_tenants; ++t) {
        FairnessReport::Tenant &tr = report.tenants[t];
        tr.tenant = t;
        if (rated[t] > 0)
            tr.slowdown /= rated[t];
        report.weightedSpeedup += tr.weightedSpeedup;
        if (tr.slowdown <= 0.0)
            continue;
        if (min_slowdown == 0.0 || tr.slowdown < min_slowdown)
            min_slowdown = tr.slowdown;
        max_slowdown = std::max(max_slowdown, tr.slowdown);
    }
    if (min_slowdown > 0.0)
        report.unfairness = max_slowdown / min_slowdown;
    return report;
}

} // namespace rrm::sys
