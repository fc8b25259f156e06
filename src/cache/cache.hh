/**
 * @file
 * A single set-associative write-back cache array.
 *
 * Cache is a building block: it owns tags, dirty bits, and LRU
 * replacement stamps, and exposes the primitive operations the
 * three-level CacheHierarchy composes (lookup, allocate-with-victim,
 * dirty marking, invalidation). It deliberately stores no data bytes —
 * the simulator tracks state, not contents.
 *
 * Storage is packed structure-of-arrays, set-major: one tag word per
 * line, with a free way marked by the all-ones tag (a line address
 * shifted right by at least one bit never is), plus parallel LRU-stamp
 * and dirty arrays. Lookups return a way handle, an index into those
 * arrays, and the dirty operations act on the handle, so a caller
 * walks a set once per operation.
 */

#ifndef RRM_CACHE_CACHE_HH
#define RRM_CACHE_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/auditable.hh"
#include "common/check.hh"
#include "common/math_util.hh"
#include "common/units.hh"
#include "stats/stats.hh"

namespace rrm::ckpt
{
class ChunkWriter;
class ChunkReader;
} // namespace rrm::ckpt

namespace rrm::cache
{

/**
 * Static configuration of one cache level. Every level's line is one
 * memory block (rrm::blockBytes), the unit the RRM and the PCM track.
 */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    Tick hitLatency = 1_ns;
};

/**
 * Handle of one line: its index into the cache's arrays. It stays
 * valid until that line is evicted or invalidated.
 */
using Way = std::uint32_t;

/** The handle of no line (a lookup miss). */
inline constexpr Way noWay = ~Way(0);

/** A line displaced by an allocation. */
struct Victim
{
    bool valid = false;
    Addr addr = 0;
    bool dirty = false;
};

/** Outcome of allocating a line. */
struct Allocation
{
    Way way = noWay; ///< the new (clean, most recently used) line
    Victim victim;   ///< valid == false if a free way was used
};

/** One set-associative cache level. */
class Cache : public Auditable
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    std::uint64_t numSets() const { return numSets_; }

    /** Line-aligned base address of `addr`. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(blockBytes - 1);
    }

    /** Handle of the line holding `addr`, or noWay. No side effects. */
    Way
    find(Addr addr) const
    {
        const Addr tag = tagOf(addr);
        const Way base = setBase(addr);
        const Addr *tags = tags_.data() + base;
        for (unsigned w = 0; w < config_.assoc; ++w)
            if (tags[w] == tag)
                return base + w;
        return noWay;
    }

    /**
     * find() that counts a hit or a miss and, on a hit, makes the line
     * most recently used.
     */
    Way
    lookup(Addr addr)
    {
        const Way way = find(addr);
        if (way != noWay) {
            stamps_[way] = ++replClock_;
            if (statHits_)
                ++*statHits_;
        } else if (statMisses_) {
            ++*statMisses_;
        }
        return way;
    }

    /**
     * Allocate a clean line for `addr` (must not be present) in the
     * way victimWay() picks, as the most recently used line.
     */
    Allocation allocate(Addr addr);

    /** Mark the line dirty. */
    void
    markDirty(Way way)
    {
        RRM_CHECK(way < tags_.size(), "markDirty() without a line in '",
                  config_.name, "'");
        dirty_[way] = 1;
    }

    /** @return the line's dirty bit. */
    bool
    isDirty(Way way) const
    {
        RRM_CHECK(way < tags_.size(), "isDirty() without a line in '",
                  config_.name, "'");
        return dirty_[way] != 0;
    }

    /**
     * Invalidate the line if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /** Number of valid lines (for tests / occupancy checks). */
    std::uint64_t numValidLines() const;

    /** Invoke fn(lineAddr) for every valid line (tests / invariants). */
    template <typename Fn>
    void
    forEachValidLine(Fn &&fn) const
    {
        for (const Addr tag : tags_)
            if (tag != freeTag)
                fn(tag << lineShift);
    }

    /** Register hit/miss/writeback statistics into a group. */
    void regStats(stats::StatGroup &group);

    /**
     * @{ Checkpoint the full array state: every line's tag / stamp /
     * dirty bit plus the LRU clock. Counters registered via regStats
     * are covered by the stats section, not here.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    std::string_view auditName() const override { return config_.name; }

    /**
     * Invariants: no duplicate tags within a set, every tag indexes
     * back to the set holding it, free ways are clean with stamp 0,
     * and the valid ways of a set carry distinct non-zero stamps.
     */
    void audit() const override;

  private:
    /** log2 of the line (block) size. */
    static constexpr unsigned lineShift = std::countr_zero(blockBytes);

    /** Tag of a free way; no line's tag (addr >> lineShift) is. */
    static constexpr Addr freeTag = ~Addr(0);

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift) & (numSets_ - 1);
    }

    /** Handle of way 0 of the set `addr` maps to. */
    Way
    setBase(Addr addr) const
    {
        return static_cast<Way>(setIndex(addr) * config_.assoc);
    }

    Addr tagOf(Addr addr) const { return addr >> lineShift; }

    /**
     * Replacement: the way of the set at `base` with the smallest
     * stamp, ties to the lowest way. Free ways carry stamp 0, so the
     * first free way wins; a full set gives up its least recently
     * used line. The single replacement decision point — a different
     * policy replaces this function.
     */
    unsigned victimWay(Way base) const;

    CacheConfig config_;
    std::uint64_t numSets_;

    /** @{ numSets_ * assoc entries each, set-major. */
    std::vector<Addr> tags_;             ///< freeTag marks a free way
    std::vector<std::uint64_t> stamps_;  ///< LRU clock at last use; 0 = free
    std::vector<std::uint8_t> dirty_;
    /** @} */

    /** LRU clock: advanced and stamped on every allocate and hit. */
    std::uint64_t replClock_ = 0;

    stats::Scalar *statHits_ = nullptr;
    stats::Scalar *statMisses_ = nullptr;
    stats::Scalar *statEvictions_ = nullptr;
    stats::Scalar *statDirtyEvictions_ = nullptr;
};

} // namespace rrm::cache

#endif // RRM_CACHE_CACHE_HH
