/**
 * @file
 * Telemetry implementation: stat registration and export.
 */

#include "telemetry.hh"

#include "obs/stat_writers.hh"

namespace rrm::obs
{

Telemetry::Telemetry()
{
    queueHooks_.executedByPriority = &group_.addVector(
        "eventsByPriority",
        "events executed per EventPriority class",
        EventQueueTelemetry::priorityBinNames());
    queueHooks_.scheduleLatency = &group_.addHistogram(
        "scheduleLatency",
        "schedule() lead time (ticks between scheduling and firing)");
    queueHooks_.queueDepth = &group_.addHistogram(
        "queueDepth", "pending events observed at each schedule()");
    writePathHooks_.writebackOccupancy = &group_.addHistogram(
        "writebackOccupancy",
        "writeback drain-queue occupancy at each enqueue");
    writePathHooks_.refreshOverflowOccupancy = &group_.addHistogram(
        "refreshOverflowOccupancy",
        "refresh overflow-queue occupancy at each deferral");
    refreshPressure_ = &group_.addHistogram(
        "refreshPressure",
        "refresh-queue pressure (percent of capacity) per "
        "timing-visible refresh");
}

void
Telemetry::writeJson(std::ostream &os) const
{
    writeStatsJson(os, group_);
}

} // namespace rrm::obs
