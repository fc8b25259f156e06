/**
 * @file
 * The adaptive RRM write policy's feedback law and its constants.
 */

#ifndef RRM_POLICY_ADAPTIVE_CONFIG_HH
#define RRM_POLICY_ADAPTIVE_CONFIG_HH

namespace rrm::policy
{

/**
 * Feedback law of AdaptiveRrmPolicy. Once per decay epoch the policy
 * reads two signals and re-points the RegionMonitor's hot_threshold:
 *
 *  - *pressure*: refresh-path occupancy in [0, 1] (deepest refresh
 *    queue's fill fraction; 1.0 once refreshes have overflowed).
 *    pressure >= pressureHigh doubles the threshold — an emergency
 *    brake that sheds selective-refresh load when the refresh path
 *    saturates.
 *  - *reuse*: the fraction of the epoch's registrations that landed
 *    in an already-hot region. Very high hot reuse (>= reuseHigh)
 *    means the hot set is mature: most writes are already fast, and
 *    the marginal promotions mostly add refresh obligation without
 *    adding coverage, so the threshold doubles to trim them. Very low
 *    hot reuse (< reuseLow) marks a streaming phase whose promotions
 *    will not stay hot; it raises the decay floor to 2x the base
 *    threshold. In the mid band (reuse in [reuseLow, reuseDecay))
 *    with a drained refresh path the threshold halves back toward
 *    the floor.
 *
 * The threshold always stays within [base, base * maxThresholdMultiple].
 * The law's constants are fixed; the type stays so that callers read
 * them through SystemConfig::adaptive (DESIGN.md section 3).
 */
struct AdaptiveRrmConfig
{
    /** Pressure at or above which the threshold doubles. */
    static constexpr double pressureHigh = 0.5;

    /** Pressure at or below which the threshold may decay (halve). */
    static constexpr double pressureLow = 0.125;

    /** Hot-reuse fraction at or above which the threshold doubles. */
    static constexpr double reuseHigh = 0.53;

    /**
     * Hot-reuse fraction below which decay is permitted. The gap up
     * to reuseHigh is hysteresis: a threshold raised because the hot
     * set matured is not unwound the moment hot reuse dips, which
     * would oscillate between two thresholds every other epoch.
     */
    static constexpr double reuseDecay = 0.30;

    /** Hot-reuse fraction below which the epoch counts as streaming. */
    static constexpr double reuseLow = 0.12;

    /** Threshold ceiling as a multiple of the configured base. */
    static constexpr unsigned maxThresholdMultiple = 4;

    static_assert(pressureHigh > 0.0 && pressureHigh <= 1.0,
                  "pressureHigh must be in (0, 1]");
    static_assert(pressureLow >= 0.0 && pressureLow < pressureHigh,
                  "pressureLow must be in [0, pressureHigh)");
    static_assert(reuseHigh > 0.0 && reuseHigh <= 1.0,
                  "reuseHigh must be in (0, 1]");
    static_assert(reuseDecay >= 0.0 && reuseDecay < reuseHigh,
                  "reuseDecay must be in [0, reuseHigh)");
    static_assert(reuseLow >= 0.0 && reuseLow <= reuseDecay,
                  "reuseLow must be in [0, reuseDecay]");
    static_assert(maxThresholdMultiple >= 2,
                  "maxThresholdMultiple must be >= 2");
};

} // namespace rrm::policy

#endif // RRM_POLICY_ADAPTIVE_CONFIG_HH
