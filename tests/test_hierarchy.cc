/**
 * @file
 * Tests for the three-level inclusive cache hierarchy, including the
 * LLC-write-registration and memory-write event semantics the RRM
 * depends on.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "common/random.hh"

namespace rrm::cache
{
namespace
{

bool
holds(const Cache &c, Addr addr)
{
    return c.find(addr) != noWay;
}

bool
dirtyIn(const Cache &c, Addr addr)
{
    return c.isDirty(c.find(addr));
}

/** A small hierarchy so evictions are easy to provoke. */
HierarchyConfig
tinyHierarchy()
{
    HierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.l1.name = "l1";
    cfg.l1.sizeBytes = 512; // 8 lines, 2 sets
    cfg.l1.assoc = 4;
    cfg.l1.hitLatency = 1_ns;
    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = 1024; // 16 lines
    cfg.l2.assoc = 4;
    cfg.l2.hitLatency = 6_ns;
    cfg.llc.name = "llc";
    cfg.llc.sizeBytes = 4096; // 64 lines
    cfg.llc.assoc = 4;
    cfg.llc.hitLatency = 17_ns;
    return cfg;
}

TEST(Hierarchy, ColdAccessMissesEverywhere)
{
    CacheHierarchy h(tinyHierarchy());
    const HierarchyEvents ev = h.access(0, 0x1000, false);
    EXPECT_TRUE(ev.llcMiss);
    EXPECT_EQ(ev.hitLevel, 0u);
    EXPECT_EQ(ev.latency, 24_ns); // all three lookup latencies
    EXPECT_FALSE(ev.memWrite);
    EXPECT_FALSE(ev.registration);
}

TEST(Hierarchy, FillMakesLinePresentAtAllLevels)
{
    CacheHierarchy h(tinyHierarchy());
    ASSERT_TRUE(h.access(0, 0x1000, false).llcMiss);
    h.fill(0, 0x1000, false);
    EXPECT_TRUE(holds(h.l1(0), 0x1000));
    EXPECT_TRUE(holds(h.l2(0), 0x1000));
    EXPECT_TRUE(holds(h.llc(), 0x1000));
    const HierarchyEvents ev = h.access(0, 0x1000, false);
    EXPECT_EQ(ev.hitLevel, 1u);
    EXPECT_EQ(ev.latency, 1_ns);
}

TEST(Hierarchy, StoreDirtiesL1OnFill)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x40, true);
    h.fill(0, 0x40, true);
    EXPECT_TRUE(dirtyIn(h.l1(0), 0x40));
    EXPECT_FALSE(dirtyIn(h.llc(), 0x40));
}

TEST(Hierarchy, DoubleFillPanics)
{
    CacheHierarchy h(tinyHierarchy());
    h.fill(0, 0x40, false);
    EXPECT_THROW(h.fill(0, 0x40, false), check::CheckError);
}

TEST(Hierarchy, RejectsMoreCoresThanASharerRowHolds)
{
    HierarchyConfig cfg = tinyHierarchy();
    cfg.numCores = 64;
    EXPECT_NO_THROW(CacheHierarchy{cfg});
    cfg.numCores = 65;
    EXPECT_THROW(CacheHierarchy{cfg}, check::CheckError);
}

/**
 * Filling distinct lines mapping to one L1 set pushes dirty victims
 * down to L2 (no registration: lines are still inside the core's
 * private caches).
 */
TEST(Hierarchy, DirtyL1VictimMergesIntoL2)
{
    CacheHierarchy h(tinyHierarchy());
    // L1: 2 sets -> stride 128 B stays in one set.
    const Addr stride = 128;
    h.fill(0, 0, true); // dirty in L1
    for (int i = 1; i <= 4; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        EXPECT_FALSE(ev.registration);
    }
    // Line 0 left L1 but must be dirty in L2 now.
    EXPECT_FALSE(holds(h.l1(0), 0));
    ASSERT_TRUE(holds(h.l2(0), 0));
    EXPECT_TRUE(dirtyIn(h.l2(0), 0));
}

/**
 * When a dirty line is evicted from L2 it is written into its LLC
 * line: the hierarchy must emit an LLC Write Registration whose
 * was_dirty flag reflects the LLC line's previous state.
 */
TEST(Hierarchy, L2DirtyEvictionRegistersLlcWrite)
{
    CacheHierarchy h(tinyHierarchy());
    // L2: 4 sets -> stride 256 B maps to one L2 set.
    const Addr stride = 256;
    h.fill(0, 0, true);
    bool registered = false;
    Addr reg_addr = 0;
    bool was_dirty = true;
    for (int i = 1; i <= 8 && !registered; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        if (ev.registration) {
            registered = true;
            reg_addr = ev.registrationAddr;
            was_dirty = ev.registrationWasDirty;
        }
    }
    ASSERT_TRUE(registered);
    EXPECT_EQ(reg_addr, 0u);
    EXPECT_FALSE(was_dirty); // first writeback: LLC line was clean
    EXPECT_TRUE(dirtyIn(h.llc(), 0));
}

/**
 * The write-backs a fill pushes into a lower level are lookups there
 * and count as hits: a dirty L1 victim's merge in l2<N>.hits, a dirty
 * L2 victim's LLC write in llc.hits. fill() itself looks nothing up.
 */
TEST(Hierarchy, WritebacksCountAsHitsInTheLevelBelow)
{
    auto hits = [](const stats::StatGroup &g, const char *level) {
        return dynamic_cast<const stats::Scalar *>(
                   g.find(std::string(level) + ".hits"))
            ->value();
    };
    {
        // Stride 128: one L1 set, two L2 sets, so only L1 evicts.
        CacheHierarchy h(tinyHierarchy());
        stats::StatGroup g("g");
        h.regStats(g);
        h.fill(0, 0, true);
        for (int i = 1; i <= 4; ++i)
            h.fill(0, static_cast<Addr>(i) * 128, false);
        EXPECT_DOUBLE_EQ(hits(g, "l20"), 1.0);
        EXPECT_DOUBLE_EQ(hits(g, "llc"), 0.0);
    }
    {
        // Stride 256: one L1 and one L2 set; the fifth fill evicts the
        // L2 copy of line 0, whose dirty L1 copy goes to the LLC.
        CacheHierarchy h(tinyHierarchy());
        stats::StatGroup g("g");
        h.regStats(g);
        h.fill(0, 0, true);
        int registrations = 0;
        for (int i = 1; i <= 4; ++i)
            registrations +=
                h.fill(0, static_cast<Addr>(i) * 256, false).registration;
        EXPECT_EQ(registrations, 1);
        EXPECT_DOUBLE_EQ(hits(g, "l20"), 0.0);
        EXPECT_DOUBLE_EQ(hits(g, "llc"), 1.0);
    }
}

/**
 * A second dirty writeback of the same line while its LLC copy is
 * still present must carry was_dirty == true — the signal the RRM's
 * streaming filter keys on.
 */
TEST(Hierarchy, SecondWritebackSeesDirtyLlcLine)
{
    CacheHierarchy h(tinyHierarchy());
    const Addr stride = 256;

    auto push_through_l2 = [&](Addr target) -> HierarchyEvents {
        // Re-dirty the target, then evict it from L2 by filling the
        // set with other lines. The registration can surface either
        // from the access (LLC-hit refill) or from the miss fill.
        h.access(0, target, true);
        for (int i = 1; i <= 8; ++i) {
            const Addr filler = static_cast<Addr>(i) * stride + 0x10000;
            HierarchyEvents ev = h.access(0, filler, false);
            if (ev.registration && ev.registrationAddr == target)
                return ev;
            if (ev.llcMiss) {
                ev = h.fill(0, filler, false);
                if (ev.registration && ev.registrationAddr == target)
                    return ev;
            }
        }
        return HierarchyEvents{};
    };

    h.access(0, 0, true);
    h.fill(0, 0, true);
    const HierarchyEvents first = push_through_l2(0);
    ASSERT_TRUE(first.registration);
    EXPECT_FALSE(first.registrationWasDirty);

    // The line is now only in the LLC (dirty). Touch it again with a
    // store (refills L1/L2 from LLC) and push it through once more.
    ASSERT_FALSE(h.access(0, 0, true).llcMiss);
    const HierarchyEvents second = push_through_l2(0);
    ASSERT_TRUE(second.registration);
    EXPECT_TRUE(second.registrationWasDirty);
}

TEST(Hierarchy, DirtyLlcVictimBecomesMemoryWrite)
{
    CacheHierarchy h(tinyHierarchy());
    // LLC: 16 sets -> stride 1024 B in one LLC set (assoc 4).
    const Addr stride = 1024;
    h.fill(0, 0, true);
    // Evict line 0 from L1/L2 with fillers that share its L1/L2 sets
    // (block multiples of 4) but land in other LLC sets (block not a
    // multiple of 16), pushing the dirty data into the LLC line.
    for (int i : {1, 2, 3, 5, 6, 7, 9, 10})
        h.fill(0, static_cast<Addr>(4 * i) * 64, false);
    ASSERT_TRUE(holds(h.llc(), 0));
    ASSERT_TRUE(dirtyIn(h.llc(), 0));

    bool wrote = false;
    Addr write_addr = 1;
    for (int i = 1; i <= 8 && !wrote; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        if (ev.memWrite) {
            wrote = true;
            write_addr = ev.memWriteAddr;
        }
    }
    ASSERT_TRUE(wrote);
    EXPECT_EQ(write_addr, 0u);
    EXPECT_FALSE(holds(h.llc(), 0));
}

TEST(Hierarchy, CleanLlcVictimVanishesSilently)
{
    CacheHierarchy h(tinyHierarchy());
    const Addr stride = 1024;
    h.fill(0, 0, false); // never dirtied
    for (int i = 1; i <= 4; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        EXPECT_FALSE(ev.memWrite);
    }
}

/**
 * Back-invalidation: an LLC victim whose L1 copy is dirtier than the
 * LLC line must still reach memory with the dirty data accounted.
 */
TEST(Hierarchy, BackInvalidationMergesUpperDirtyCopy)
{
    CacheHierarchy h(tinyHierarchy());
    const Addr stride = 1024;
    h.fill(0, 0, true); // dirty only in L1
    bool wrote = false;
    for (int i = 1; i <= 4; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        wrote |= ev.memWrite && ev.memWriteAddr == 0;
    }
    EXPECT_TRUE(wrote);
    EXPECT_FALSE(holds(h.l1(0), 0));
    EXPECT_FALSE(holds(h.l2(0), 0));
}

TEST(Hierarchy, CoresHavePrivateUpperLevels)
{
    CacheHierarchy h(tinyHierarchy());
    h.fill(0, 0x40, false);
    EXPECT_TRUE(holds(h.l1(0), 0x40));
    EXPECT_FALSE(holds(h.l1(1), 0x40));
    // Core 1 hits the shared LLC, not its own upper levels.
    const HierarchyEvents ev = h.access(1, 0x40, false);
    EXPECT_FALSE(ev.llcMiss);
    EXPECT_EQ(ev.hitLevel, 3u);
}

TEST(Hierarchy, InclusionHoldsUnderRandomTraffic)
{
    CacheHierarchy h(tinyHierarchy());
    Random rng(1234);
    for (int i = 0; i < 20000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.uniform(2));
        const Addr addr = rng.uniform(512) * 64;
        const bool is_write = rng.chance(0.4);
        if (h.access(core, addr, is_write).llcMiss)
            h.fill(core, addr, is_write);
        if (i % 1000 == 0) {
            ASSERT_NO_THROW(h.audit()) << "iteration " << i;
        }
    }
    EXPECT_NO_THROW(h.audit());
}

TEST(Hierarchy, AtMostOneRegistrationAndWritePerFill)
{
    CacheHierarchy h(tinyHierarchy());
    Random rng(99);
    for (int i = 0; i < 20000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.uniform(2));
        const Addr addr = rng.uniform(256) * 64;
        const bool is_write = rng.chance(0.5);
        const HierarchyEvents ev = h.access(core, addr, is_write);
        if (ev.llcMiss) {
            const HierarchyEvents fe = h.fill(core, addr, is_write);
            if (fe.memWrite) {
                ASSERT_NE(fe.memWriteAddr, addr);
            }
        }
    }
}

/** Every valid line of `c` with its dirty bit. */
std::map<Addr, bool>
contentsOf(const Cache &c)
{
    std::map<Addr, bool> out;
    c.forEachValidLine([&](Addr a) { out[a] = dirtyIn(c, a); });
    return out;
}

TEST(Hierarchy, RestoreRebuildsSharersExactly)
{
    // Four cores over a footprint twice the LLC, half of it shared, so
    // LLC victims are often held by other cores' L1/L2. The sharer
    // rows are not checkpointed: a restored hierarchy must rebuild
    // them from its L2s, or its back-invalidations would leave stale
    // upper copies that the original removes.
    HierarchyConfig cfg = tinyHierarchy();
    cfg.numCores = 4;
    CacheHierarchy original(cfg);
    Random rng(4242);
    const auto step = [&](CacheHierarchy &h, unsigned core, Addr addr,
                          bool is_write) {
        HierarchyEvents ev = h.access(core, addr, is_write);
        if (ev.llcMiss)
            ev = h.fill(core, addr, is_write);
        return ev;
    };
    const auto next_op = [&](unsigned &core, Addr &addr, bool &is_write) {
        core = static_cast<unsigned>(rng.uniform(4));
        addr = rng.chance(0.5) ? rng.uniform(64) * 64
                               : (64 + core * 32 + rng.uniform(32)) * 64;
        is_write = rng.chance(0.4);
    };
    for (int i = 0; i < 5000; ++i) {
        unsigned core = 0;
        Addr addr = 0;
        bool is_write = false;
        next_op(core, addr, is_write);
        step(original, core, addr, is_write);
    }

    ckpt::ChunkWriter w;
    original.saveCkpt(w);
    CacheHierarchy restored(cfg);
    ckpt::ChunkReader r(w.data().data(), w.size(), "CACH");
    restored.restoreCkpt(r);
    r.expectDone();
    ASSERT_NO_THROW(restored.audit());

    stats::StatGroup original_stats("original");
    stats::StatGroup restored_stats("restored");
    original.regStats(original_stats);
    restored.regStats(restored_stats);
    unsigned llc_write_backs = 0;
    for (int i = 0; i < 20000; ++i) {
        unsigned core = 0;
        Addr addr = 0;
        bool is_write = false;
        next_op(core, addr, is_write);
        const HierarchyEvents want = step(original, core, addr, is_write);
        const HierarchyEvents got = step(restored, core, addr, is_write);
        ASSERT_EQ(got.hitLevel, want.hitLevel) << "op " << i;
        ASSERT_EQ(got.latency, want.latency) << "op " << i;
        ASSERT_EQ(got.memWrite, want.memWrite) << "op " << i;
        ASSERT_EQ(got.memWriteAddr, want.memWriteAddr) << "op " << i;
        ASSERT_EQ(got.registration, want.registration) << "op " << i;
        ASSERT_EQ(got.registrationAddr, want.registrationAddr) << "op " << i;
        ASSERT_EQ(got.registrationWasDirty, want.registrationWasDirty)
            << "op " << i;
        llc_write_backs += want.memWrite;
    }
    EXPECT_GT(llc_write_backs, 100u);

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        EXPECT_EQ(contentsOf(restored.l1(c)), contentsOf(original.l1(c)))
            << "l1 of core " << c;
        EXPECT_EQ(contentsOf(restored.l2(c)), contentsOf(original.l2(c)))
            << "l2 of core " << c;
    }
    EXPECT_EQ(contentsOf(restored.llc()), contentsOf(original.llc()));
    std::vector<std::string> levels = {"llc"};
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        levels.push_back("l1" + std::to_string(c));
        levels.push_back("l2" + std::to_string(c));
    }
    for (const std::string &level : levels) {
        for (const char *name :
             {"hits", "misses", "evictions", "dirtyEvictions"}) {
            const std::string path = level + "." + name;
            const auto *want = dynamic_cast<const stats::Scalar *>(
                original_stats.find(path));
            const auto *got = dynamic_cast<const stats::Scalar *>(
                restored_stats.find(path));
            ASSERT_TRUE(want && got) << path;
            EXPECT_EQ(got->value(), want->value()) << path;
        }
    }
    EXPECT_NO_THROW(restored.audit());
}

TEST(Hierarchy, DefaultConfigMatchesTable4)
{
    const HierarchyConfig cfg = defaultHierarchyConfig();
    EXPECT_EQ(cfg.numCores, 4u);
    EXPECT_EQ(cfg.l1.sizeBytes, 32_KiB);
    EXPECT_EQ(cfg.l1.assoc, 4u);
    EXPECT_EQ(cfg.l2.sizeBytes, 256_KiB);
    EXPECT_EQ(cfg.l2.assoc, 8u);
    EXPECT_EQ(cfg.llc.sizeBytes, 6_MiB);
    EXPECT_EQ(cfg.llc.assoc, 24u);
    EXPECT_EQ(CacheHierarchy::llcMshrs(), 32u);
}

} // namespace
} // namespace rrm::cache
