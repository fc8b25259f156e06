/**
 * @file
 * A single set-associative write-back cache array.
 *
 * Cache is a building block: it owns tags, valid/dirty bits, and LRU
 * replacement stamps, and exposes the primitive operations the
 * three-level CacheHierarchy composes (lookup, allocate-with-victim,
 * dirty marking, invalidation). It deliberately stores no data bytes —
 * the simulator tracks state, not contents.
 */

#ifndef RRM_CACHE_CACHE_HH
#define RRM_CACHE_CACHE_HH

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

/** Static configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    Tick hitLatency = 1_ns;
    unsigned mshrs = 8;
};

/** Outcome of allocating a line: the displaced victim, if any. */
struct Victim
{
    bool valid = false;
    Addr addr = 0;
    bool dirty = false;
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
        return addr & ~static_cast<Addr>(config_.lineBytes - 1);
    }

    /** True if the line holding `addr` is present. */
    bool contains(Addr addr) const;

    /**
     * Look up and, on hit, make the line most recently used.
     * @return true on hit.
     */
    bool access(Addr addr);

    /**
     * Allocate a line for `addr` (must not be present), evicting the
     * least recently used line if the set is full.
     *
     * @return The displaced victim (valid == false if a free way was
     *         used).
     */
    Victim allocate(Addr addr);

    /** Mark the (present) line dirty. */
    void setDirty(Addr addr);

    /** @return dirty flag of the (present) line. */
    bool isDirty(Addr addr) const;

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
        for (const auto &line : lines_)
            if (line.valid)
                fn(line.tag << lineShift_);
    }

    /** Register hit/miss/writeback statistics into a group. */
    void regStats(stats::StatGroup &group);

    /**
     * @{ Checkpoint the full array state: every line's tag / stamp /
     * valid / dirty plus the LRU clock. Counters registered via
     * regStats are covered by the stats section, not here.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    std::string_view auditName() const override { return config_.name; }

    /**
     * Invariants: no duplicate valid tags within a set, every valid
     * tag indexes back to the set holding it, dirty state only on
     * valid lines, and distinct LRU stamps among the valid ways of a
     * set.
     */
    void audit() const override;

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t stamp = 0; ///< LRU clock at the last use
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    /**
     * Victim choice for a full set: the way with the smallest stamp
     * (least recently used). The single replacement decision point —
     * a different policy replaces this function.
     */
    unsigned victimWay(const Line *set) const;

    CacheConfig config_;
    std::uint64_t numSets_;
    unsigned lineShift_;
    std::vector<Line> lines_; ///< numSets_ * assoc, set-major

    /** LRU clock: advanced and stamped on every allocate and hit. */
    std::uint64_t replClock_ = 0;

    stats::Scalar *statHits_ = nullptr;
    stats::Scalar *statMisses_ = nullptr;
    stats::Scalar *statEvictions_ = nullptr;
    stats::Scalar *statDirtyEvictions_ = nullptr;
};

} // namespace rrm::cache

#endif // RRM_CACHE_CACHE_HH
