/**
 * @file
 * TraceGenerator implementation.
 */

#include "generator.hh"

#include "common/check.hh"
#include "common/math_util.hh"

namespace rrm::trace
{

namespace
{

/** Mean instructions per memory instruction, the gap's one included. */
double
instrPerMemOp(const BenchmarkProfile &profile)
{
    RRM_CHECK(profile.memOpsPerKiloInstr > 0.0 &&
                  profile.memOpsPerKiloInstr <= 1000.0,
              "memory intensity out of range");
    return (1000.0 - profile.memOpsPerKiloInstr) /
               profile.memOpsPerKiloInstr +
           1.0;
}

} // namespace

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               std::uint64_t seed)
    : profile_(profile), rng_(seed), gap_(instrPerMemOp(profile))
{
    RRM_CHECK(!profile.patterns.empty(),
              "profile '", profile.name, "' has no patterns");

    double total_weight = 0.0;
    Addr base = 0;
    for (const auto &spec : profile.patterns) {
        RRM_CHECK(spec.weight > 0.0, "pattern weight must be positive");
        total_weight += spec.weight;
        Component c;
        c.pattern = spec.build();
        c.base = base;
        c.cumulativeWeight = total_weight;
        base += divCeil(c.pattern->footprintBytes(), 64) * 64;
        components_.push_back(std::move(c));
    }
    footprint_ = base;
    // Normalize cumulative weights to [0, 1].
    for (auto &c : components_)
        c.cumulativeWeight /= total_weight;
    components_.back().cumulativeWeight = 1.0;
}

TraceRecord
TraceGenerator::next()
{
    const double u = rng_.uniformDouble();
    Component *chosen = &components_.back();
    for (auto &c : components_) {
        if (u < c.cumulativeWeight) {
            chosen = &c;
            break;
        }
    }

    TraceRecord rec;
    AccessType type = AccessType::Read;
    Addr addr = 0;
    chosen->pattern->next(rng_, addr, type);
    rec.addr = chosen->base + addr;
    rec.type = type;
    // Geometric gap with the profile's mean; gaps of zero model
    // back-to-back memory instructions.
    rec.gapInstructions =
        static_cast<std::uint32_t>(gap_.sample(rng_) - 1);
    return rec;
}

} // namespace rrm::trace
