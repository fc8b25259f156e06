/**
 * @file
 * Tests for the set-associative LRU cache array and its way handles.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "ckpt/ckpt.hh"
#include "common/check.hh"

namespace rrm::cache
{
namespace
{

CacheConfig
tinyConfig()
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sizeBytes = 4096; // 64 lines
    cfg.assoc = 4;        // 16 sets
    return cfg;
}

/** Address stride that keeps lines in one set of tinyConfig(). */
constexpr Addr kSetStride = 16 * 64;

double
scalar(const stats::StatGroup &g, const char *name)
{
    return dynamic_cast<const stats::Scalar *>(
               g.find(std::string("tiny.") + name))
        ->value();
}

TEST(Cache, GeometryFromConfig)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.numSets(), 16u);
}

TEST(Cache, MissThenHitAfterAllocate)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.lookup(0x1000), noWay);
    const Allocation a = c.allocate(0x1000);
    EXPECT_NE(a.way, noWay);
    EXPECT_EQ(c.lookup(0x1000), a.way);
    EXPECT_EQ(c.find(0x1000), a.way);
}

TEST(Cache, LineGranularity)
{
    Cache c(tinyConfig());
    const Way way = c.allocate(0x1000).way;
    EXPECT_EQ(c.lookup(0x1004), way);
    EXPECT_EQ(c.lookup(0x103F), way);
    EXPECT_EQ(c.lookup(0x1040), noWay);
}

TEST(Cache, AllocatePresentLinePanics)
{
    Cache c(tinyConfig());
    c.allocate(0x1000);
    EXPECT_THROW(c.allocate(0x1000), check::CheckError);
}

TEST(Cache, FreeWayMeansNoVictim)
{
    Cache c(tinyConfig());
    for (int i = 0; i < 4; ++i) {
        const Allocation a = c.allocate(0x1000 + i * kSetStride);
        EXPECT_FALSE(a.victim.valid) << i;
    }
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyConfig());
    for (int i = 0; i < 4; ++i)
        c.allocate(i * kSetStride);
    // Touch lines 0..2, leaving line 3 as LRU.
    c.lookup(0 * kSetStride);
    c.lookup(1 * kSetStride);
    c.lookup(2 * kSetStride);
    const Allocation a = c.allocate(4 * kSetStride);
    ASSERT_TRUE(a.victim.valid);
    EXPECT_EQ(a.victim.addr, 3 * kSetStride);
}

TEST(Cache, FindNeitherCountsNorPromotes)
{
    Cache c(tinyConfig());
    stats::StatGroup g("g");
    c.regStats(g);
    for (int i = 0; i < 4; ++i)
        c.allocate(i * kSetStride);
    EXPECT_NE(c.find(0), noWay);
    EXPECT_EQ(c.find(4 * kSetStride), noWay);
    // Line 0 is still the LRU line despite the find().
    EXPECT_EQ(c.allocate(4 * kSetStride).victim.addr, 0u);
    EXPECT_DOUBLE_EQ(scalar(g, "hits"), 0.0);
    EXPECT_DOUBLE_EQ(scalar(g, "misses"), 0.0);
}

TEST(Cache, DirtyBitTravelsWithVictim)
{
    Cache c(tinyConfig());
    c.markDirty(c.allocate(0).way);
    for (int i = 1; i < 4; ++i)
        c.allocate(i * kSetStride);
    // Line 0 is LRU and dirty.
    const Allocation a = c.allocate(4 * kSetStride);
    ASSERT_TRUE(a.victim.valid);
    EXPECT_EQ(a.victim.addr, 0u);
    EXPECT_TRUE(a.victim.dirty);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(tinyConfig());
    c.allocate(0x40);
    EXPECT_FALSE(c.invalidate(0x40));
    EXPECT_EQ(c.find(0x40), noWay);

    c.markDirty(c.allocate(0x40).way);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.invalidate(0x40)); // already gone
}

TEST(Cache, InvalidatedWayIsRefilledBeforeAnyEviction)
{
    Cache c(tinyConfig());
    for (int i = 0; i < 4; ++i)
        c.allocate(i * kSetStride);
    const Way hole = c.find(2 * kSetStride);
    c.invalidate(2 * kSetStride);
    const Allocation a = c.allocate(4 * kSetStride);
    EXPECT_FALSE(a.victim.valid);
    EXPECT_EQ(a.way, hole);
}

TEST(Cache, DirtyOpsOnAbsentLinePanic)
{
    Cache c(tinyConfig());
    EXPECT_THROW(c.markDirty(c.find(0x40)), check::CheckError);
    EXPECT_THROW(c.isDirty(c.find(0x40)), check::CheckError);
}

TEST(Cache, AllocationResetsDirtyBit)
{
    Cache c(tinyConfig());
    const Way dirty_way = c.allocate(0).way;
    c.markDirty(dirty_way);
    for (int i = 1; i < 4; ++i)
        c.allocate(i * kSetStride);
    // The dirty line's way is reused by a new line: it must start clean.
    const Allocation a = c.allocate(4 * kSetStride);
    EXPECT_EQ(a.way, dirty_way);
    EXPECT_FALSE(c.isDirty(a.way));
}

TEST(Cache, NumValidLinesTracksAllocations)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.numValidLines(), 0u);
    c.allocate(0);
    c.allocate(64);
    EXPECT_EQ(c.numValidLines(), 2u);
    c.invalidate(0);
    EXPECT_EQ(c.numValidLines(), 1u);
}

TEST(Cache, StatsCountHitsMissesEvictions)
{
    Cache c(tinyConfig());
    stats::StatGroup g("g");
    c.regStats(g);
    c.lookup(0); // miss
    c.allocate(0);
    c.lookup(0); // hit
    for (int i = 1; i < 5; ++i)
        c.allocate(i * kSetStride); // last one evicts
    EXPECT_DOUBLE_EQ(scalar(g, "misses"), 1.0);
    EXPECT_DOUBLE_EQ(scalar(g, "hits"), 1.0);
    EXPECT_DOUBLE_EQ(scalar(g, "evictions"), 1.0);
}

TEST(Cache, AllocateAndLookupRejectLinesBeyondTheTagRange)
{
    // Tags are 32-bit line addresses and the all-ones tag marks a free
    // way, so line 2^32 - 1 and every line past it must fail loudly
    // rather than match a free way or alias a line 2^32 below.
    Cache c(tinyConfig());
    const Addr top = (Addr(1) << 32) - 1;
    c.allocate((top - 1) * 64); // the last line in range
    EXPECT_NE(c.find((top - 1) * 64), noWay);
    for (const Addr line : {top, top + 1, top + 2, ~Addr(0) >> 6}) {
        const Addr addr = line * 64;
        EXPECT_THROW(c.allocate(addr), check::CheckError) << line;
        EXPECT_THROW(c.lookup(addr), check::CheckError) << line;
        EXPECT_THROW(c.invalidate(addr), check::CheckError) << line;
    }
    EXPECT_EQ(c.numValidLines(), 1u);

    // So is such a tag in a checkpoint (all-ones still means free).
    for (const std::uint64_t bad : {std::uint64_t(top), std::uint64_t(top) + 1,
                                    ~std::uint64_t(0) - 1}) {
        ckpt::ChunkWriter w;
        w.u64(1);
        w.u32(64);
        for (std::size_t i = 0; i < 64; ++i) {
            w.u64(i == 5 ? bad : ~std::uint64_t(0));
            w.u64(i == 5 ? 1 : 0);
            w.b(false);
        }
        Cache target(tinyConfig());
        ckpt::ChunkReader r(w.data().data(), w.size(), "CACH");
        EXPECT_THROW(target.restoreCkpt(r), ckpt::CkptError) << bad;
    }
}

TEST(Cache, CheckpointWritesSixtyFourBitTags)
{
    // The format-8 layout: each tag is a u64 line address and a free
    // way is all-ones, whatever the width of the tag array.
    Cache c(tinyConfig());
    c.markDirty(c.allocate(0x1000).way);
    ckpt::ChunkWriter w;
    c.saveCkpt(w);

    ckpt::ChunkReader raw(w.data().data(), w.size(), "CACH");
    raw.u64(); // LRU clock
    ASSERT_EQ(raw.u32(), 64u);
    const Way way = c.find(0x1000);
    for (Way i = 0; i < 64; ++i) {
        EXPECT_EQ(raw.u64(), i == way ? 0x1000u / 64 : ~std::uint64_t(0))
            << i;
        raw.u64(); // stamp
        raw.b();   // dirty
    }
    raw.expectDone();

    Cache restored(tinyConfig());
    ckpt::ChunkReader r(w.data().data(), w.size(), "CACH");
    restored.restoreCkpt(r);
    EXPECT_EQ(restored.find(0x1000), way);
    EXPECT_TRUE(restored.isDirty(way));
    EXPECT_EQ(restored.numValidLines(), 1u);
}

TEST(Cache, BadGeometryPanics)
{
    CacheConfig cfg = tinyConfig();
    cfg.sizeBytes = 4096 + 64; // not whole sets
    EXPECT_THROW(Cache{cfg}, check::CheckError);
}

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{};

TEST_P(CacheGeometry, FillsToCapacityWithoutEviction)
{
    const auto [size, assoc] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    Cache c(cfg);
    const std::uint64_t lines = size / 64;
    for (std::uint64_t i = 0; i < lines; ++i) {
        const Allocation a = c.allocate(i * 64);
        ASSERT_FALSE(a.victim.valid) << "line " << i;
    }
    EXPECT_EQ(c.numValidLines(), lines);
    // One more in any set must evict.
    EXPECT_TRUE(c.allocate(lines * 64).victim.valid);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair{4096ULL, 1u}, std::pair{4096ULL, 4u},
                      std::pair{32768ULL, 8u},
                      std::pair{65536ULL, 16u}));

} // namespace
} // namespace rrm::cache
