/**
 * @file
 * DriftModel implementation.
 */

#include "drift_model.hh"

#include <algorithm>
#include <cmath>

namespace rrm::pcm
{

DriftModel::DriftModel(const DriftParams &params)
    : params_(params)
{
    RRM_CHECK(params_.alpha > 0.0, "drift exponent must be positive");
    RRM_CHECK(params_.levelSeparation > 0.0,
              "level separation must be positive");
    RRM_CHECK(params_.t0Seconds > 0.0, "t0 must be positive");
    // The most precise supported write (7 SETs) must still fit inside
    // the level band, otherwise no guardband exists at all.
    RRM_CHECK(bandWidth(7) > 0.0,
              "band width must stay positive up to 7 SET iterations");
    RRM_CHECK(guardband(3) > 0.0,
              "even a 3-SET write must leave a positive guardband");
}

double
DriftModel::bandWidth(unsigned set_iterations) const
{
    return params_.bandWidth0 -
           params_.bandWidthStep * static_cast<double>(set_iterations);
}

double
DriftModel::guardband(unsigned set_iterations) const
{
    return params_.levelSeparation - bandWidth(set_iterations);
}

double
DriftModel::driftDecades(double seconds, double alpha) const
{
    if (seconds <= 0.0)
        return 0.0;
    return alpha * std::log10(seconds / params_.t0Seconds);
}

double
DriftModel::retentionSeconds(unsigned set_iterations) const
{
    return params_.t0Seconds *
           std::pow(10.0, guardband(set_iterations) / params_.alpha);
}

double
DriftModel::sampleRetentionSeconds(unsigned set_iterations,
                                   Random &rng) const
{
    // Box-Muller sample of the cell's drift exponent.
    const double u1 = std::max(rng.uniformDouble(), 0x1.0p-53);
    const double u2 = rng.uniformDouble();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double alpha =
        std::max(params_.alpha + z * params_.alphaSigma, 1e-3);
    return params_.t0Seconds *
           std::pow(10.0, guardband(set_iterations) / alpha);
}

double
DriftModel::timeToDriftSeconds(double decades) const
{
    RRM_CHECK(decades >= 0.0, "negative drift target");
    return params_.t0Seconds * std::pow(10.0, decades / params_.alpha);
}

} // namespace rrm::pcm
