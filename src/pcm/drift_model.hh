/**
 * @file
 * Analytic resistance-drift / retention model for MLC PCM.
 *
 * Chalcogenide structural relaxation makes a PCM cell's resistance
 * drift upward over time following the standard power law
 *
 *     log10 R(t) = log10 R0 + alpha * log10(t / t0),   t0 = 1 s.
 *
 * A 2-bit MLC cell subdivides the resistance range into four levels
 * separated by `levelSeparation` decades. An N-SET program-and-verify
 * write leaves the cell within an initial band of
 * `bandWidth(N) = bandWidth0 - bandWidthStep * N` decades above the
 * level target; the remaining `guardband(N) = levelSeparation -
 * bandWidth(N)` decades absorb drift. Retention is the time for the
 * worst-case cell (top of band, nominal drift) to cross the
 * guardband:
 *
 *     retention(N) = t0 * 10^(guardband(N) / alpha).
 *
 * The constants are fitted to the paper's Table I (which itself comes
 * from the multi-factor Li et al. model); the fit is within a factor
 * of ~1.5 of every Table I retention value and exactly reproduces the
 * monotone latency/retention trade-off. Simulation timing uses the
 * calibrated Table I constants (write_mode.hh); this model only
 * re-derives them, for bench_table1_write_model's analytic and guard
 * columns. Per-cell process variation (a sampled drift exponent) is
 * not modelled: it belongs with a reliability study that needs it.
 */

#ifndef RRM_PCM_DRIFT_MODEL_HH
#define RRM_PCM_DRIFT_MODEL_HH

#include <cmath>

#include "pcm/write_mode.hh"

namespace rrm::pcm::drift
{

/** Drift exponent (typical amorphous GST: ~0.1). */
constexpr double alpha = 0.1;

/** Log10-resistance separation between adjacent MLC levels. */
constexpr double levelSeparation = 0.5;

/** Programming band width (decades) at zero SET iterations. */
constexpr double bandWidth0 = 0.6954;

/** Band narrowing (decades) per additional SET iteration. */
constexpr double bandWidthStep = 0.0798;

/** Drift normalization time t0 in seconds. */
constexpr double t0Seconds = 1.0;

/** Programming band width (decades) after n SET iterations. */
constexpr double
bandWidth(unsigned set_iterations)
{
    return bandWidth0 - bandWidthStep * static_cast<double>(set_iterations);
}

/** Guardband (decades) left by an n-SET write. */
constexpr double
guardband(unsigned set_iterations)
{
    return levelSeparation - bandWidth(set_iterations);
}

// The most precise supported write (7 SETs) must still fit inside the
// level band, and even a 3-SET write must leave a guardband.
static_assert(bandWidth(7) > 0.0,
              "band width must stay positive up to 7 SET iterations");
static_assert(guardband(3) > 0.0,
              "even a 3-SET write must leave a positive guardband");

/** Worst-case retention of an n-SET write, in seconds. */
inline double
retentionSeconds(unsigned set_iterations)
{
    return t0Seconds * std::pow(10.0, guardband(set_iterations) / alpha);
}

/** Retention of a WriteMode (convenience overload). */
inline double
retentionSeconds(WriteMode mode)
{
    return retentionSeconds(setIterations(mode));
}

} // namespace rrm::pcm::drift

#endif // RRM_PCM_DRIFT_MODEL_HH
