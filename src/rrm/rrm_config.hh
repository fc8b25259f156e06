/**
 * @file
 * Region Retention Monitor configuration (paper Section IV, Table IV).
 */

#ifndef RRM_RRM_RRM_CONFIG_HH
#define RRM_RRM_RRM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/units.hh"
#include "pcm/write_mode.hh"

namespace rrm::monitor
{

/**
 * Static configuration of the RRM structure. The paper's 3-SETs/7-SETs
 * mode pair, 0.01 s guard, 16 decay ticks per interval and lookup
 * latency are constants; the geometry, threshold, filter and scaling
 * knobs stay settable for the sensitivity benches.
 */
struct RrmConfig
{
    /** Retention Region size covered by one entry (default 4 KB). */
    std::uint64_t regionBytes = 4_KiB;

    /** Set count (256 sets x 24 ways = 24 MB = 4x LLC coverage). */
    unsigned numSets = 256;

    /** Associativity. */
    unsigned assoc = 24;

    /** Dirty writes needed to mark a region hot. */
    unsigned hotThreshold = 16;

    /**
     * Register only LLC writes to previously-dirty LLC entries (the
     * paper's streaming filter, Section IV-D). Disabling it lets
     * streaming regions accumulate registrations and turn hot — the
     * failure mode the paper designed the filter against; exposed for
     * the ablation bench.
     */
    bool dirtyWriteFilter = true;

    /** RRM lookup latency (4 cycles @ 2 GHz). */
    static constexpr Tick accessLatency = 2_ns;

    /** Fast (short retention) and slow (long retention) write modes. */
    static constexpr pcm::WriteMode fastMode = pcm::WriteMode::Sets3;
    static constexpr pcm::WriteMode slowMode = pcm::WriteMode::Sets7;

    // More SET iterations program a narrower band: longer retention.
    static_assert(pcm::setIterations(fastMode) < pcm::setIterations(slowMode),
                  "the fast mode must have the shorter retention");

    /**
     * Safety margin before the fast mode's retention expires: the
     * paper refreshes every 2 s against a 2.01 s retention.
     */
    static constexpr double guardSeconds = 0.01;

    /**
     * Retention-interval compression factor of the run (DESIGN.md
     * section 3); 1.0 reproduces the paper's native timing.
     */
    double timeScale = 1.0;

    /** Decay ticks per short-retention interval (4-bit counter). */
    static constexpr unsigned decayTicksPerInterval = 16;

    /**
     * Stretch factor applied to the decay window in scaled runs.
     *
     * At native scale the dirty_write_counter accumulates over one
     * 2 s short-retention interval; compressing intervals by
     * `timeScale` shrinks that accumulation window while cache
     * residency dynamics (which gate the dirty-write filter) do not
     * scale, making hot_threshold effectively timeScale x stricter.
     * Stretching the decay window by ~timeScale/16 restores the
     * paper's dirty-writes-per-window regime (see DESIGN.md
     * section 3). 0 selects that automatic value; 1 reproduces the
     * paper's native 0.125 s ticks.
     */
    double decayStretch = 0.0;

    /** Effective decay stretch (resolves the 0 = auto default). */
    double
    effectiveDecayStretch() const
    {
        if (decayStretch > 0.0)
            return decayStretch;
        return timeScale > 16.0 ? timeScale / 16.0 : 1.0;
    }

    /** Blocks (vector bits) per Retention Region. */
    std::uint64_t
    blocksPerRegion() const
    {
        return regionBytes / blockBytes;
    }

    /** Memory covered by the whole structure. */
    std::uint64_t
    coverageBytes() const
    {
        return regionBytes * numSets * assoc;
    }

    /** Interval between short-retention (fast refresh) interrupts. */
    Tick
    shortRetentionInterval() const
    {
        const double seconds =
            (pcm::retentionSeconds(fastMode) - guardSeconds) / timeScale;
        RRM_CHECK(seconds > 0.0, "guard exceeds fast-mode retention");
        return secondsToTicks(seconds);
    }

    /** Interval between decay-counter ticks. */
    Tick
    decayTickInterval() const
    {
        return static_cast<Tick>(
            static_cast<double>(shortRetentionInterval()) *
            effectiveDecayStretch() / decayTicksPerInterval);
    }

    /** Tag bits per entry (full address minus in-region bits). */
    unsigned
    tagBits() const
    {
        return 64u - floorLog2(regionBytes);
    }

    /** dirty_write_counter width (paper: 6 bits at threshold 16). */
    unsigned
    counterBits() const
    {
        const unsigned needed = bitsFor(hotThreshold);
        return needed < 6 ? 6 : needed;
    }

    /** Total SRAM bits of the structure (Table VIII overhead math). */
    std::uint64_t
    storageBits() const
    {
        const std::uint64_t per_entry = 1 /* valid */ + tagBits() +
                                        1 /* hot */ + counterBits() +
                                        blocksPerRegion() /* vector */ +
                                        4 /* decay */;
        return per_entry * numSets * assoc;
    }

    /** Total storage in bytes. */
    std::uint64_t
    storageBytes() const
    {
        return divCeil(storageBits(), 8);
    }

    /**
     * Append a description of every violated invariant to `errors`
     * (SystemConfig::validate() aggregates them into one message).
     */
    void
    collectErrors(std::vector<std::string> &errors) const
    {
        if (!isPowerOfTwo(regionBytes))
            errors.push_back("RRM region size must be a power of two");
        if (regionBytes < blockBytes)
            errors.push_back("RRM region smaller than a block");
        if (numSets == 0 || assoc == 0)
            errors.push_back("RRM geometry must be non-empty");
        if (hotThreshold == 0)
            errors.push_back("hot_threshold must be positive");
        if (timeScale < 1.0)
            errors.push_back("time scale must be >= 1");
    }

    /** Validate invariants; fatal() on bad user configuration. */
    void
    check() const
    {
        std::vector<std::string> errors;
        collectErrors(errors);
        if (!errors.empty())
            fatal(errors.front());
    }

    /**
     * True if any structural field differs from the defaults — i.e.
     * the user configured the RRM (timeScale is set by the system and
     * does not count). Used to flag RRM settings on a Static scheme.
     */
    bool
    isCustomized() const
    {
        const RrmConfig def;
        return regionBytes != def.regionBytes || numSets != def.numSets ||
               assoc != def.assoc || hotThreshold != def.hotThreshold ||
               dirtyWriteFilter != def.dirtyWriteFilter ||
               decayStretch != def.decayStretch;
    }
};

} // namespace rrm::monitor

#endif // RRM_RRM_RRM_CONFIG_HH
