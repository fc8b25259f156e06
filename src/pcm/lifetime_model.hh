/**
 * @file
 * PCM lifetime estimation.
 *
 * Follows the paper's methodology: cells endure `endurance` RESETs
 * (5e6); an effective wear-leveling scheme (Start-Gap-like) lets the
 * whole array realize `levelingEfficiency` (95%) of the lifetime
 * implied by the *average* per-block write rate. Lifetime is then
 *
 *   lifetime = efficiency * endurance / (per-block writes per second),
 *
 * where the write rate sums three causes:
 *  - demand writes, measured over the simulated window;
 *  - RRM selective refreshes, measured over the simulated window but
 *    spread over `timeScale x` more real time (see DESIGN.md section 3
 *    on time scaling: refresh rounds in the scaled run represent the
 *    same number of rounds across a `timeScale x` longer wall-clock
 *    interval);
 *  - global self-refresh, analytic: every block rewritten once per
 *    retention interval of the scheme's baseline write mode.
 */

#ifndef RRM_PCM_LIFETIME_MODEL_HH
#define RRM_PCM_LIFETIME_MODEL_HH

#include <cstdint>
#include <optional>

#include "pcm/write_mode.hh"

namespace rrm::pcm
{

/** Cell endurance in RESET cycles. */
constexpr double endurance = 5.0e6;

/** Fraction of average-cell lifetime achieved by wear leveling. */
constexpr double levelingEfficiency = 0.95;
static_assert(levelingEfficiency > 0.0 && levelingEfficiency <= 1.0);

/** Measured wear over a simulated window, ready for extrapolation. */
struct WearMeasurement
{
    /** Total demand block writes in the window. */
    std::uint64_t demandWrites = 0;

    /** Total RRM selective-refresh block writes in the window. */
    std::uint64_t rrmRefreshWrites = 0;

    /** Simulated window length in (scaled) seconds. */
    double windowSeconds = 0.0;

    /** Retention-interval compression factor of the run (>= 1). */
    double timeScale = 1.0;

    /**
     * Baseline write mode whose retention sets the global-refresh
     * interval; nullopt disables global refresh (for experiments that
     * want demand wear only).
     */
    std::optional<WriteMode> globalRefreshMode = WriteMode::Sets7;
};

/** Converts measured wear into per-second rates and lifetime. */
class LifetimeModel
{
  public:
    explicit LifetimeModel(std::uint64_t num_blocks);

    /** Demand block writes per real second (whole array). */
    double demandWriteRate(const WearMeasurement &m) const;

    /** RRM refresh block writes per real second (whole array). */
    double rrmRefreshRate(const WearMeasurement &m) const;

    /** Global refresh block writes per real second (whole array). */
    double globalRefreshRate(const WearMeasurement &m) const;

    /** Average per-block writes per real second, all causes. */
    double perBlockWriteRate(const WearMeasurement &m) const;

    /** Estimated array lifetime in seconds. */
    double lifetimeSeconds(const WearMeasurement &m) const;

    /** Estimated array lifetime in years (365.25-day years). */
    double lifetimeYears(const WearMeasurement &m) const;

  private:
    std::uint64_t numBlocks_;
};

/** Seconds per (Julian) year. */
constexpr double secondsPerYear = 365.25 * 24.0 * 3600.0;

} // namespace rrm::pcm

#endif // RRM_PCM_LIFETIME_MODEL_HH
