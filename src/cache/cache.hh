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
 * Storage is packed structure-of-arrays, set-major: one 32-bit tag per
 * line, the line address (address / block size), plus parallel LRU-stamp
 * and dirty arrays. A free way holds the all-ones tag. The 8 GiB memory
 * has 2^27 lines, so every real line fits below it; a line address that
 * does not fails a check in find() and allocate() instead of aliasing
 * another line. Lookups return a way handle, an index into those
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

    /**
     * Handle of the line holding `addr`, or noWay. No side effects.
     * The set walk has no branch: at most one way matches (allocate()
     * keeps a set's tags distinct, and tagOf() never yields freeTag),
     * so OR-ing each way's (index + 1) under its match mask yields that
     * way + 1, and the OR of the masks tells a hit from a miss.
     */
    Way
    find(Addr addr) const
    {
        const Tag tag = tagOf(addr);
        const Way base = setBase(addr);
        const Tag *tags = tags_.data() + base;
        Way match = 0;
        Way any = 0;
        for (unsigned w = 0; w < config_.assoc; ++w) {
            const Way m = -Way(tags[w] == tag);
            match |= m & (w + 1);
            any |= m;
        }
        return (base + match - 1) | ~any;
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
        for (const Tag tag : tags_)
            if (tag != freeTag)
                fn(Addr(tag) << lineShift);
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

    /** A line address: the tag of the line's way. */
    using Tag = std::uint32_t;

    /** Tag of a free way; tagOf() rejects any line address at or above. */
    static constexpr Tag freeTag = ~Tag(0);

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

    Tag
    tagOf(Addr addr) const
    {
        const Addr line = addr >> lineShift;
        RRM_CHECK(line < freeTag, "address 0x", std::hex, addr, std::dec,
                  " is beyond the tag range of '", config_.name, "'");
        return static_cast<Tag>(line);
    }

    /**
     * Replacement: the way of the set at `base` with the smallest
     * stamp, ties to the lowest way. Free ways carry stamp 0, so the
     * first free way wins; a full set gives up its least recently
     * used line. The single replacement decision point — a different
     * policy replaces this function. The same walk checks that `tag`
     * is not already in the set (allocate()'s precondition).
     */
    unsigned victimWay(Way base, Tag tag) const;

    CacheConfig config_;
    std::uint64_t numSets_;

    /** @{ numSets_ * assoc entries each, set-major. */
    std::vector<Tag> tags_;              ///< freeTag marks a free way
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
