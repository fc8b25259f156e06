/**
 * @file
 * LifetimeModel implementation.
 */

#include "lifetime_model.hh"

namespace rrm::pcm
{

LifetimeModel::LifetimeModel(std::uint64_t num_blocks)
    : numBlocks_(num_blocks)
{
    RRM_CHECK(numBlocks_ > 0, "lifetime model needs a non-empty array");
}

double
LifetimeModel::demandWriteRate(const WearMeasurement &m) const
{
    RRM_CHECK(m.windowSeconds > 0.0, "measurement window is empty");
    return static_cast<double>(m.demandWrites) / m.windowSeconds;
}

double
LifetimeModel::rrmRefreshRate(const WearMeasurement &m) const
{
    RRM_CHECK(m.windowSeconds > 0.0, "measurement window is empty");
    RRM_CHECK(m.timeScale >= 1.0, "time scale must be >= 1");
    // The scaled window compresses refresh intervals by timeScale, so
    // the same refresh activity is spread over timeScale x more real
    // time than the window suggests.
    return static_cast<double>(m.rrmRefreshWrites) /
           (m.windowSeconds * m.timeScale);
}

double
LifetimeModel::globalRefreshRate(const WearMeasurement &m) const
{
    if (!m.globalRefreshMode)
        return 0.0;
    // Every block is rewritten once per (un-scaled) retention interval.
    const double interval = retentionSeconds(*m.globalRefreshMode);
    return static_cast<double>(numBlocks_) / interval;
}

double
LifetimeModel::perBlockWriteRate(const WearMeasurement &m) const
{
    const double array_rate =
        demandWriteRate(m) + rrmRefreshRate(m) + globalRefreshRate(m);
    return array_rate / static_cast<double>(numBlocks_);
}

double
LifetimeModel::lifetimeSeconds(const WearMeasurement &m) const
{
    const double rate = perBlockWriteRate(m);
    RRM_CHECK(rate > 0.0, "zero write rate gives unbounded lifetime");
    return levelingEfficiency * endurance / rate;
}

double
LifetimeModel::lifetimeYears(const WearMeasurement &m) const
{
    return lifetimeSeconds(m) / secondsPerYear;
}

} // namespace rrm::pcm
