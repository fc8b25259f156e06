/**
 * @file
 * Differential oracle for the cache layer. The real set-associative
 * array and the real inclusive hierarchy run in lockstep with
 * deliberately naive reference models written straight from the spec
 * (cache/hierarchy.hh's header comment): a per-set std::list LRU and
 * one uniform "install a line, push its victim down" rule. Seeded
 * random and adversarial traffic (same-set thrash, write-heavy
 * streams, invalidation holes, cores sharing lines) must produce the
 * same hits, victims, HierarchyEvents and per-level counters. The
 * reference back-invalidates an LLC victim from every core, so it
 * checks the real hierarchy's sharer rows independently; the tiny3
 * and tiny64 cases give those rows an unused bit and a whole word.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/random.hh"

namespace rrm::cache
{
namespace
{

// ---- The real array, through its public API ----

/** Look up `addr` in `c`; a store hit dirties the line. */
bool
touch(Cache &c, Addr addr, bool is_write)
{
    const Way way = c.lookup(addr);
    if (way != noWay && is_write)
        c.markDirty(way);
    return way != noWay;
}

/** Every valid line of `c` with its dirty bit. */
std::map<Addr, bool>
contentsOf(const Cache &c)
{
    std::map<Addr, bool> out;
    c.forEachValidLine([&](Addr a) { out[a] = c.isDirty(c.find(a)); });
    return out;
}

/** The four counters a level registers, read back from `group`. */
std::vector<double>
countersOf(const stats::StatGroup &group, const std::string &level)
{
    std::vector<double> out;
    for (const char *name :
         {"hits", "misses", "evictions", "dirtyEvictions"}) {
        const auto *s = dynamic_cast<const stats::Scalar *>(
            group.find(level + "." + name));
        out.push_back(s ? s->value() : -1.0);
    }
    return out;
}

// ---- The naive reference models ----

/**
 * List-LRU cache: each set is a std::list of (line, dirty) in recency
 * order, most recent first. A hit moves the line to the front; a full
 * set evicts the list tail; a set with room evicts nothing.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : assoc_(cfg.assoc), sets_(cfg.sizeBytes / (blockBytes * cfg.assoc))
    {}

    /** Look up; a hit counts and becomes most recent. */
    bool
    lookup(Addr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        if (it == set.end()) {
            ++misses;
            return false;
        }
        set.splice(set.begin(), set, it);
        ++hits;
        return true;
    }

    /** Insert a clean line as most recent, evicting the tail if full. */
    Victim
    allocate(Addr addr)
    {
        auto &set = setOf(addr);
        Victim victim;
        if (set.size() == assoc_) {
            victim.valid = true;
            victim.addr = set.back().line;
            victim.dirty = set.back().dirty;
            set.pop_back();
            ++evictions;
            if (victim.dirty)
                ++dirtyEvictions;
        }
        set.push_front({lineOf(addr), false});
        return victim;
    }

    bool
    isDirty(Addr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        return it != set.end() && it->dirty;
    }

    void
    markDirty(Addr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        if (it != set.end())
            it->dirty = true;
    }

    /** Drop the line if present; true if it was dirty. */
    bool
    invalidate(Addr addr)
    {
        auto &set = setOf(addr);
        const auto it = find(set, addr);
        if (it == set.end())
            return false;
        const bool dirty = it->dirty;
        set.erase(it);
        return dirty;
    }

    std::map<Addr, bool>
    contents() const
    {
        std::map<Addr, bool> out;
        for (const auto &set : sets_)
            for (const Entry &e : set)
                out[e.line] = e.dirty;
        return out;
    }

    std::vector<double>
    counters() const
    {
        return {double(hits), double(misses), double(evictions),
                double(dirtyEvictions)};
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;

  private:
    struct Entry
    {
        Addr line;
        bool dirty;
    };
    using Set = std::list<Entry>;

    Addr lineOf(Addr addr) const { return addr - addr % blockBytes; }

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>((addr / blockBytes) % sets_.size());
    }

    Set &setOf(Addr addr) { return sets_[setIndex(addr)]; }

    Set::iterator
    find(Set &set, Addr addr)
    {
        for (auto it = set.begin(); it != set.end(); ++it)
            if (it->line == lineOf(addr))
                return it;
        return set.end();
    }

    std::size_t assoc_;
    std::vector<Set> sets_;
};

/**
 * Inclusive three-level hierarchy from the spec. Level 0 is a core's
 * L1, level 1 its L2, level 2 the shared LLC. A demand access finds
 * the highest level holding the line, then installs it in each level
 * above, bottom up; a store dirties the L1 copy. Installing a line
 * may displace a victim, which leaves every level above the one it
 * was evicted from (inclusion); if any copy was dirty it is written
 * one level down: an L1 victim dirties its L2 line, an L2 victim is
 * an LLC write registration carrying the LLC line's previous dirty
 * bit, an LLC victim is a memory write. Both write-backs into a
 * lower level are lookups there, counted as hits.
 */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const HierarchyConfig &cfg)
        : cfg_(cfg), llc_(cfg.llc)
    {
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            l1_.emplace_back(cfg.l1);
            l2_.emplace_back(cfg.l2);
        }
    }

    HierarchyEvents
    access(unsigned core, Addr addr, bool is_write)
    {
        addr = lineOf(addr);
        HierarchyEvents ev;
        const Tick latency[3] = {cfg_.l1.hitLatency, cfg_.l2.hitLatency,
                                 cfg_.llc.hitLatency};
        int found = -1;
        for (int level = 0; level < 3 && found < 0; ++level) {
            ev.latency += latency[level];
            if (at(core, level).lookup(addr))
                found = level;
        }
        if (found < 0) {
            ev.llcMiss = true;
            return ev;
        }
        ev.hitLevel = static_cast<unsigned>(found) + 1;
        for (int level = found - 1; level >= 0; --level)
            install(core, level, addr, ev);
        if (is_write)
            l1_[core].markDirty(addr);
        return ev;
    }

    HierarchyEvents
    fill(unsigned core, Addr addr, bool is_write)
    {
        addr = lineOf(addr);
        HierarchyEvents ev;
        for (int level = 2; level >= 0; --level)
            install(core, level, addr, ev);
        if (is_write)
            l1_[core].markDirty(addr);
        return ev;
    }

    RefCache &l1(unsigned core) { return l1_[core]; }
    RefCache &l2(unsigned core) { return l2_[core]; }
    RefCache &llc() { return llc_; }

  private:
    Addr
    lineOf(Addr addr) const
    {
        return addr - addr % blockBytes;
    }

    RefCache &
    at(unsigned core, int level)
    {
        return level == 0 ? l1_[core] : level == 1 ? l2_[core] : llc_;
    }

    void
    install(unsigned core, int level, Addr addr, HierarchyEvents &ev)
    {
        const Victim victim = at(core, level).allocate(addr);
        if (!victim.valid)
            return;
        bool dirty = victim.dirty;
        // Inclusion: the victim leaves every level above. Only the LLC
        // is shared, so its victim leaves every core's L1 and L2.
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            if (level < 2 && c != core)
                continue;
            for (int above = 0; above < level; ++above)
                dirty |= at(c, above).invalidate(victim.addr);
        }
        if (!dirty)
            return;
        if (level == 2) {
            ev.memWrite = true;
            ev.memWriteAddr = victim.addr;
            return;
        }
        RefCache &below = at(core, level + 1);
        EXPECT_TRUE(below.lookup(victim.addr))
            << "inclusion broken at level " << level;
        if (level == 1) {
            EXPECT_FALSE(ev.registration) << "two LLC writes";
            ev.registration = true;
            ev.registrationAddr = victim.addr;
            ev.registrationWasDirty = below.isDirty(victim.addr);
        }
        below.markDirty(victim.addr);
    }

    HierarchyConfig cfg_;
    std::vector<RefCache> l1_;
    std::vector<RefCache> l2_;
    RefCache llc_;
};

// ---- Both models in lockstep ----

std::string
describe(const HierarchyEvents &ev)
{
    std::ostringstream os;
    os << "latency " << ev.latency << " hitLevel " << ev.hitLevel
       << " llcMiss " << ev.llcMiss << " memWrite " << ev.memWrite
       << " @0x" << std::hex << ev.memWriteAddr << std::dec
       << " registration " << ev.registration << " @0x" << std::hex
       << ev.registrationAddr << std::dec << " wasDirty "
       << ev.registrationWasDirty;
    return os.str();
}

/**
 * The real hierarchy and the reference, side by side. A miss leaves
 * its line pending (one fill per line, like an MSHR merge), and
 * pending fills complete in random order, so other traffic runs
 * between a miss and its fill.
 */
class HierarchyLockstep
{
  public:
    explicit HierarchyLockstep(const HierarchyConfig &cfg)
        : cfg_(cfg), real_(cfg), ref_(cfg), stats_("oracle")
    {
        real_.regStats(stats_);
    }

    ::testing::AssertionResult
    access(unsigned core, Addr addr, bool is_write)
    {
        const HierarchyEvents got = real_.access(core, addr, is_write);
        const HierarchyEvents want = ref_.access(core, addr, is_write);
        if (describe(got) != describe(want)) {
            return ::testing::AssertionFailure()
                   << "access(core " << core << ", 0x" << std::hex << addr
                   << std::dec << ", write " << is_write << ")\n  real: "
                   << describe(got) << "\n  ref:  " << describe(want);
        }
        if (got.llcMiss) {
            const Addr line = real_.llc().lineAddr(addr);
            bool merged = false;
            for (Pending &p : pending_) {
                if (p.line == line) {
                    p.isWrite |= is_write;
                    merged = true;
                }
            }
            if (!merged)
                pending_.push_back({core, line, is_write});
        }
        return ::testing::AssertionSuccess();
    }

    /** Complete one pending fill chosen by `rng`, if any. */
    ::testing::AssertionResult
    fillOne(Random &rng)
    {
        if (pending_.empty())
            return ::testing::AssertionSuccess();
        const std::size_t i =
            static_cast<std::size_t>(rng.uniform(pending_.size()));
        const Pending p = pending_[i];
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        const HierarchyEvents got = real_.fill(p.core, p.line, p.isWrite);
        const HierarchyEvents want = ref_.fill(p.core, p.line, p.isWrite);
        if (describe(got) != describe(want)) {
            return ::testing::AssertionFailure()
                   << "fill(core " << p.core << ", 0x" << std::hex
                   << p.line << std::dec << ", write " << p.isWrite
                   << ")\n  real: " << describe(got)
                   << "\n  ref:  " << describe(want);
        }
        return ::testing::AssertionSuccess();
    }

    /** Every level's counters and contents agree. */
    ::testing::AssertionResult
    sameState()
    {
        for (unsigned c = 0; c < cfg_.numCores; ++c) {
            auto r = sameLevel(real_.l1(c), ref_.l1(c),
                               cfg_.l1.name + std::to_string(c));
            if (!r)
                return r;
            r = sameLevel(real_.l2(c), ref_.l2(c),
                          cfg_.l2.name + std::to_string(c));
            if (!r)
                return r;
        }
        return sameLevel(real_.llc(), ref_.llc(), cfg_.llc.name);
    }

    /** Run `steps` accesses from `next`, filling with probability `p`. */
    template <typename Next>
    ::testing::AssertionResult
    drive(Random &rng, int steps, double fill_chance, Next &&next)
    {
        for (int i = 0; i < steps; ++i) {
            unsigned core = 0;
            Addr addr = 0;
            bool is_write = false;
            next(core, addr, is_write);
            auto r = access(core, addr, is_write);
            while (r && !pending_.empty() &&
                   (pending_.size() >= 8 || rng.chance(fill_chance)))
                r = fillOne(rng);
            if (r && i % 512 == 0)
                r = sameState();
            if (!r)
                return r << "\n  at step " << i;
        }
        while (!pending_.empty()) {
            auto r = fillOne(rng);
            if (!r)
                return r << "\n  draining";
        }
        return sameState();
    }

  private:
    struct Pending
    {
        unsigned core;
        Addr line;
        bool isWrite;
    };

    ::testing::AssertionResult
    sameLevel(const Cache &real, const RefCache &ref, const std::string &name)
    {
        const auto got = countersOf(stats_, name);
        if (got != ref.counters()) {
            return ::testing::AssertionFailure()
                   << name << " counters (hits misses evictions "
                   << "dirtyEvictions) differ: real " << got[0] << ' '
                   << got[1] << ' ' << got[2] << ' ' << got[3] << ", ref "
                   << ref.counters()[0] << ' ' << ref.counters()[1] << ' '
                   << ref.counters()[2] << ' ' << ref.counters()[3];
        }
        if (contentsOf(real) != ref.contents())
            return ::testing::AssertionFailure()
                   << name << " holds different lines or dirty bits";
        return ::testing::AssertionSuccess();
    }

    HierarchyConfig cfg_;
    CacheHierarchy real_;
    RefHierarchy ref_;
    stats::StatGroup stats_;
    std::vector<Pending> pending_;
};

/** Small geometry: 2-set L1, 4-set L2, 16-set LLC, all 4-way. */
HierarchyConfig
tinyConfig(unsigned cores)
{
    HierarchyConfig cfg;
    cfg.numCores = cores;
    cfg.l1.name = "l1";
    cfg.l1.sizeBytes = 512;
    cfg.l1.assoc = 4;
    cfg.l1.hitLatency = 1_ns;
    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = 1024;
    cfg.l2.assoc = 4;
    cfg.l2.hitLatency = 6_ns;
    cfg.llc.name = "llc";
    cfg.llc.sizeBytes = 4096;
    cfg.llc.assoc = 4;
    cfg.llc.hitLatency = 17_ns;
    return cfg;
}

/** Wider ways: 2-way L1, 8-way L2, 12-way LLC (non-power-of-two). */
HierarchyConfig
wideConfig(unsigned cores)
{
    HierarchyConfig cfg = tinyConfig(cores);
    cfg.l1.sizeBytes = 1024; // 8 sets
    cfg.l1.assoc = 2;
    cfg.l2.sizeBytes = 4096; // 8 sets
    cfg.l2.assoc = 8;
    cfg.llc.sizeBytes = 24576; // 32 sets
    cfg.llc.assoc = 12;
    return cfg;
}

std::uint64_t
llcLines(const HierarchyConfig &cfg)
{
    return cfg.llc.sizeBytes / blockBytes;
}

struct OracleCase
{
    const char *name;
    HierarchyConfig (*config)(unsigned);
    unsigned cores;
};

// Without a printer gtest shows GetParam() as the struct's raw bytes:
// two load addresses and padding, which differ from run to run, and
// ctest takes its test names from that listing.
void
PrintTo(const OracleCase &c, std::ostream *os)
{
    *os << c.name;
}

class HierarchyOracle : public ::testing::TestWithParam<OracleCase>
{
  protected:
    HierarchyConfig cfg() const { return GetParam().config(GetParam().cores); }
    unsigned cores() const { return GetParam().cores; }
};

TEST_P(HierarchyOracle, UniformRandomTraffic)
{
    const HierarchyConfig c = cfg();
    HierarchyLockstep ls(c);
    Random rng(101 + cores());
    const std::uint64_t span = 4 * llcLines(c);
    ASSERT_TRUE(ls.drive(rng, 20000, 0.5, [&](unsigned &core, Addr &a,
                                              bool &w) {
        core = static_cast<unsigned>(rng.uniform(cores()));
        a = rng.uniform(span) * 64 + rng.uniform(64);
        w = rng.chance(0.4);
    }));
}

TEST_P(HierarchyOracle, SameSetThrash)
{
    // Every line maps to LLC set 0, so each of them also shares its L1
    // and L2 set; more lines than the LLC has ways.
    const HierarchyConfig c = cfg();
    HierarchyLockstep ls(c);
    Random rng(202 + cores());
    const Addr stride = c.llc.sizeBytes / c.llc.assoc;
    const unsigned lines = c.llc.assoc + 3;
    ASSERT_TRUE(ls.drive(rng, 10000, 0.3, [&](unsigned &core, Addr &a,
                                              bool &w) {
        core = static_cast<unsigned>(rng.uniform(cores()));
        a = rng.uniform(lines) * stride;
        w = rng.chance(0.5);
    }));
}

TEST_P(HierarchyOracle, WriteHeavyStreamOverHotSet)
{
    // Each core streams stores through a region twice the LLC, with
    // one access in four going to a small hot set that keeps being
    // written back while still LLC-resident.
    const HierarchyConfig c = cfg();
    HierarchyLockstep ls(c);
    Random rng(303 + cores());
    std::vector<Addr> cursor(cores(), 0);
    const std::uint64_t stream_lines = 2 * llcLines(c);
    ASSERT_TRUE(ls.drive(rng, 20000, 0.6, [&](unsigned &core, Addr &a,
                                              bool &w) {
        core = static_cast<unsigned>(rng.uniform(cores()));
        if (rng.chance(0.25)) {
            a = (stream_lines + rng.uniform(16)) * 64;
        } else {
            a = (cursor[core]++ % stream_lines) * 64;
        }
        w = rng.chance(0.9);
    }));
}

TEST_P(HierarchyOracle, CoresShareAFewHotLines)
{
    // All cores hammer a footprint barely above one core's L2, so LLC
    // victims are often held by several cores' upper levels at once
    // and back-invalidation removes copies across cores.
    const HierarchyConfig c = cfg();
    HierarchyLockstep ls(c);
    Random rng(404 + cores());
    const std::uint64_t span =
        c.l2.sizeBytes / blockBytes + llcLines(c) / 2;
    ASSERT_TRUE(ls.drive(rng, 20000, 0.4, [&](unsigned &core, Addr &a,
                                              bool &w) {
        core = static_cast<unsigned>(rng.uniform(cores()));
        a = rng.uniform(span) * 64;
        w = rng.chance(0.3);
    }));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HierarchyOracle,
    ::testing::Values(OracleCase{"tiny1", tinyConfig, 1},
                      OracleCase{"tiny3", tinyConfig, 3},
                      OracleCase{"tiny4", tinyConfig, 4},
                      OracleCase{"tiny64", tinyConfig, 64},
                      OracleCase{"wide1", wideConfig, 1},
                      OracleCase{"wide4", wideConfig, 4}));

/**
 * The array alone against RefCache, with invalidations punching holes
 * into full sets: a set with a hole must fill it before it evicts, and
 * the victim (address and dirty bit) must be the reference's tail.
 */
TEST(CacheOracle, RandomOpsWithInvalidationHoles)
{
    CacheConfig cfg;
    cfg.name = "arr";
    cfg.sizeBytes = 4096; // 16 sets
    cfg.assoc = 4;
    Cache real(cfg);
    RefCache ref(cfg);
    stats::StatGroup g("oracle");
    real.regStats(g);
    Random rng(505);
    const std::uint64_t span = 16 * 7; // ~7 candidate lines per set
    for (int i = 0; i < 40000; ++i) {
        const Addr a = rng.uniform(span) * 64;
        if (rng.chance(0.15)) {
            ASSERT_EQ(real.invalidate(a), ref.invalidate(a)) << "step " << i;
            continue;
        }
        const bool w = rng.chance(0.4);
        const bool hit = touch(real, a, w);
        ASSERT_EQ(hit, ref.lookup(a)) << "step " << i;
        if (hit) {
            if (w)
                ref.markDirty(a);
            continue;
        }
        const Allocation got = real.allocate(a);
        const Victim want = ref.allocate(a);
        ASSERT_EQ(got.victim.valid, want.valid) << "step " << i;
        ASSERT_EQ(got.victim.addr, want.addr) << "step " << i;
        ASSERT_EQ(got.victim.dirty, want.dirty) << "step " << i;
        ASSERT_EQ(real.find(a), got.way) << "step " << i;
        if (w) {
            real.markDirty(got.way);
            ref.markDirty(a);
        }
        if (i % 1000 == 0) {
            ASSERT_EQ(contentsOf(real), ref.contents()) << "step " << i;
        }
    }
    EXPECT_EQ(contentsOf(real), ref.contents());
    EXPECT_EQ(countersOf(g, "arr"), ref.counters());
}

} // namespace
} // namespace rrm::cache
