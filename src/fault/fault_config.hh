/**
 * @file
 * Fault-injection and graceful-degradation configuration.
 */

#ifndef RRM_FAULT_FAULT_CONFIG_HH
#define RRM_FAULT_FAULT_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace rrm::fault
{

/** Rewrite attempts before a failed write is declared lost. */
constexpr unsigned maxWriteRetries = 3;

/** First rewrite backoff; doubles per attempt (200, 400, 800 ns). */
constexpr Tick retryBackoff = 200_ns;

/** Longest rewrite backoff; the doubling never reaches it. */
constexpr Tick maxRetryBackoff = 10_us;
static_assert((retryBackoff << (maxWriteRetries - 1)) <= maxRetryBackoff);

/** Spare blocks available for retiring budget-exhausted lines. */
constexpr std::uint64_t spareBlocks = 1024;

/** Granularity of the stuck-at model's per-region write counts. */
constexpr std::uint64_t wearRegionBytes = 4_KiB;

/** Refresh-pressure governor poll period in simulated seconds. */
constexpr double fallbackPollSeconds = 0.0005;

/** Consecutive saturated polls required to enter fallback. */
constexpr unsigned fallbackEnterPolls = 2;

/**
 * Only write modes whose *unscaled* retention is at or below this
 * bound are deadline-tracked. It covers 3-SETs (2.01 s) but not
 * 4-SETs (24.05 s) and above, whose deadlines are orders of magnitude
 * beyond any simulated window.
 */
constexpr double trackRetentionMaxSeconds = 3.0;

/**
 * Static configuration of the fault model. All knobs default to
 * "off": a default-constructed FaultConfig is `!enabled()` and the
 * simulator behaves (and emits output) exactly as if the fault layer
 * did not exist.
 */
struct FaultConfig
{
    // ----- retention-expiry model -------------------------------------

    /**
     * Stamp every short-retention block write with a deadline derived
     * from the Table I retention numbers (scaled by the system
     * timeScale) and raise a retention-violation fault when no
     * refresh or rewrite arrives in time.
     */
    bool retentionTracking = false;

    /**
     * Extra allowance added to every deadline, in *simulated* seconds
     * (not divided by timeScale). The paper's 0.01 s guardband
     * compresses with timeScale while queue service time does not;
     * this knob restores headroom for heavily compressed runs.
     */
    double retentionSlackSeconds = 0.0;

    /**
     * RRM_CHECK on any retention violation or unrecovered write; only
     * valid with retention tracking or transient faults on.
     */
    bool strict = false;

    // ----- transient write failures -----------------------------------

    /** Probability that a completed write is injected as failed. */
    double transientWriteFailureRate = 0.0;

    // ----- stuck-at hard faults ---------------------------------------

    /**
     * Every time a wear region's write count (writes issued since
     * warmup) crosses a multiple of this threshold, draw for a new
     * stuck-at cell. 0 disables.
     */
    std::uint64_t stuckAtWearThreshold = 0;

    /** Probability that a threshold crossing develops a stuck-at. */
    double stuckAtRate = 1.0;

    /** ECP-style per-line repair budget (ECP-6 by default). */
    unsigned repairBudgetPerLine = 6;

    // ----- refresh-queue stalls ---------------------------------------

    /**
     * Periodically hold all refresh issue for `refreshStallSeconds`
     * (simulated seconds); demand traffic is unaffected. 0 disables.
     */
    double refreshStallSeconds = 0.0;

    /** Stall period; 0 means 4x the stall duration. Needs a stall. */
    double refreshStallPeriodSeconds = 0.0;

    // ----- refresh-pressure fallback ----------------------------------

    /**
     * Demote hot regions to slow writes while any channel's refresh
     * queue stays above the high watermark, restoring fast writes
     * once the deepest queue falls to the low watermark. Only active
     * under the RRM scheme when the fault layer is enabled.
     */
    bool fallback = true;
    unsigned fallbackHighWatermark = 48;
    unsigned fallbackLowWatermark = 8;

    /** Mixed with the system seed for the injector RNG streams. */
    std::uint64_t seed = 0;

    /** True when any part of the fault layer is switched on. */
    bool
    enabled() const
    {
        return retentionTracking || transientWriteFailureRate > 0.0 ||
               stuckAtWearThreshold > 0 || refreshStallSeconds > 0.0;
    }

    double
    effectiveStallPeriodSeconds() const
    {
        return refreshStallPeriodSeconds > 0.0 ? refreshStallPeriodSeconds
                                               : 4.0 * refreshStallSeconds;
    }

    /** Append configuration errors; empty vector means valid. */
    void collectErrors(std::vector<std::string> &errors,
                       unsigned refresh_queue_cap) const;
};

} // namespace rrm::fault

#endif // RRM_FAULT_FAULT_CONFIG_HH
