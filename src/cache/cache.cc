/**
 * @file
 * Cache array implementation.
 */

#include "cache.hh"

#include "ckpt/ckpt.hh"

namespace rrm::cache
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    RRM_CHECK(config_.assoc >= 1, "associativity must be >= 1");
    RRM_CHECK(config_.sizeBytes % (blockBytes * config_.assoc) == 0,
              "cache '", config_.name,
              "' size must be a whole number of sets");
    numSets_ = config_.sizeBytes / (blockBytes * config_.assoc);
    RRM_CHECK(isPowerOfTwo(numSets_), "cache '", config_.name,
              "' set count must be a power of two");
    RRM_CHECK(numSets_ * config_.assoc < noWay, "cache '", config_.name,
              "' has too many lines for a way handle");
    const std::uint64_t lines = numSets_ * config_.assoc;
    tags_.assign(lines, freeTag);
    stamps_.assign(lines, 0);
    dirty_.assign(lines, 0);
}

unsigned
Cache::victimWay(Way base, Tag tag) const
{
    const Tag *tags = tags_.data() + base;
    const std::uint64_t *stamps = stamps_.data() + base;
    unsigned w = 0;
    bool present = tags[0] == tag;
    for (unsigned v = 1; v < config_.assoc; ++v) {
        present |= tags[v] == tag;
        if (stamps[v] < stamps[w])
            w = v;
    }
    RRM_CHECK(!present, "allocate() of a present line in '", config_.name,
              "'");
    return w;
}

Allocation
Cache::allocate(Addr addr)
{
    const Tag tag = tagOf(addr);
    const Way base = setBase(addr);
    Allocation out;
    out.way = base + victimWay(base, tag);
    if (tags_[out.way] != freeTag) {
        out.victim.valid = true;
        out.victim.addr = Addr(tags_[out.way]) << lineShift;
        out.victim.dirty = dirty_[out.way] != 0;
        if (statEvictions_)
            ++*statEvictions_;
        if (out.victim.dirty && statDirtyEvictions_)
            ++*statDirtyEvictions_;
    }
    tags_[out.way] = tag;
    stamps_[out.way] = ++replClock_;
    dirty_[out.way] = 0;
    return out;
}

bool
Cache::invalidate(Addr addr)
{
    const Way way = find(addr);
    if (way == noWay)
        return false;
    const bool was_dirty = dirty_[way] != 0;
    tags_[way] = freeTag;
    stamps_[way] = 0;
    dirty_[way] = 0;
    return was_dirty;
}

std::uint64_t
Cache::numValidLines() const
{
    std::uint64_t n = 0;
    for (const Tag tag : tags_)
        if (tag != freeTag)
            ++n;
    return n;
}

void
Cache::audit() const
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const Way base = static_cast<Way>(set * config_.assoc);
        for (unsigned w = 0; w < config_.assoc; ++w) {
            const Way way = base + w;
            if (tags_[way] == freeTag) {
                RRM_AUDIT(!dirty_[way] && stamps_[way] == 0, "cache '",
                          config_.name,
                          "': free way is dirty or stamped (set ", set,
                          " way ", w, ")");
                continue;
            }
            const Addr addr = Addr(tags_[way]) << lineShift;
            RRM_AUDIT(setIndex(addr) == set, "cache '", config_.name,
                      "': tag in set ", set, " indexes to set ",
                      setIndex(addr));
            RRM_AUDIT(stamps_[way] != 0, "cache '", config_.name,
                      "': valid line with stamp 0 (set ", set, " way ", w,
                      ")");
            for (unsigned v = w + 1; v < config_.assoc; ++v) {
                if (tags_[base + v] == freeTag)
                    continue;
                RRM_AUDIT(tags_[base + v] != tags_[way], "cache '",
                          config_.name, "': duplicate tag in set ", set,
                          " (ways ", w, " and ", v, ")");
                RRM_AUDIT(stamps_[base + v] != stamps_[way], "cache '",
                          config_.name, "': duplicate LRU stamp in set ",
                          set, " (ways ", w, " and ", v, ")");
            }
        }
    }
}

void
Cache::regStats(stats::StatGroup &group)
{
    auto &g = group.addChild(config_.name);
    statHits_ = &g.addScalar("hits", "lookups that hit");
    statMisses_ = &g.addScalar("misses", "lookups that missed");
    statEvictions_ = &g.addScalar("evictions", "lines displaced");
    statDirtyEvictions_ =
        &g.addScalar("dirtyEvictions", "dirty lines displaced");
}

void
Cache::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(replClock_);
    w.u32(static_cast<std::uint32_t>(tags_.size()));
    // The format-8 layout: each tag is a u64, a free way all-ones.
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        w.u64(tags_[i] == freeTag ? ~std::uint64_t(0) : tags_[i]);
        w.u64(stamps_[i]);
        w.b(dirty_[i] != 0);
    }
}

void
Cache::restoreCkpt(ckpt::ChunkReader &r)
{
    replClock_ = r.u64();
    const std::uint32_t n = r.u32();
    if (n != tags_.size())
        throw ckpt::CkptError(
            "cache '" + config_.name + "' has " +
            std::to_string(tags_.size()) +
            " lines but the checkpoint holds " + std::to_string(n) +
            " (geometry mismatch)");
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        const std::uint64_t tag = r.u64();
        if (tag == ~std::uint64_t(0)) {
            tags_[i] = freeTag;
        } else if (tag < freeTag) {
            tags_[i] = static_cast<Tag>(tag);
        } else {
            throw ckpt::CkptError("cache '" + config_.name +
                                  "' line tag " + std::to_string(tag) +
                                  " is beyond the tag range");
        }
        stamps_[i] = r.u64();
        dirty_[i] = r.b() ? 1 : 0;
    }
}

} // namespace rrm::cache
