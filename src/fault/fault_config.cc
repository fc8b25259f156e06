/**
 * @file
 * FaultConfig validation.
 */

#include "fault_config.hh"

namespace rrm::fault
{

void
FaultConfig::collectErrors(std::vector<std::string> &errors,
                           unsigned refresh_queue_cap) const
{
    auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
    if (!rate_ok(transientWriteFailureRate))
        errors.push_back("fault transient write failure rate must be "
                         "within [0, 1]");
    if (!rate_ok(stuckAtRate))
        errors.push_back("fault stuck-at rate must be within [0, 1]");
    if (retentionSlackSeconds < 0.0)
        errors.push_back("fault retention slack must be >= 0");
    if (refreshStallSeconds < 0.0 || refreshStallPeriodSeconds < 0.0)
        errors.push_back("fault refresh stall knobs must be >= 0");
    if (refreshStallSeconds > 0.0 &&
        effectiveStallPeriodSeconds() <= refreshStallSeconds)
        errors.push_back("fault refresh stall period must exceed the "
                         "stall duration");
    if (refreshStallPeriodSeconds > 0.0 && refreshStallSeconds == 0.0)
        errors.push_back("fault refresh stall period set without a stall "
                         "(the period would be silently ignored)");
    if (strict && !retentionTracking && transientWriteFailureRate == 0.0)
        errors.push_back("fault strict mode set without retention tracking "
                         "or transient faults (strict would be silently "
                         "ignored)");
    if (fallback) {
        if (fallbackLowWatermark >= fallbackHighWatermark)
            errors.push_back("fault fallback low watermark must be "
                             "below the high watermark");
        if (fallbackHighWatermark > refresh_queue_cap)
            errors.push_back("fault fallback high watermark must not "
                             "exceed the refresh queue capacity");
    }
}

} // namespace rrm::fault
