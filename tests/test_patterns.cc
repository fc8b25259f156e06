/**
 * @file
 * Tests for the synthetic access patterns.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/check.hh"
#include "trace/pattern.hh"

namespace rrm::trace
{
namespace
{

TEST(StridePattern, ReadsAndWritesUseDisjointHalves)
{
    StridePattern p(1_MiB, 64, 0.5);
    Random rng(1);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    for (int i = 0; i < 10000; ++i) {
        p.next(rng, addr, type);
        ASSERT_LT(addr, 1_MiB);
        if (type == AccessType::Read)
            ASSERT_LT(addr, 512_KiB);
        else
            ASSERT_GE(addr, 512_KiB);
    }
}

TEST(StridePattern, StreamsAreSequential)
{
    StridePattern p(1_MiB, 64, 0.0); // reads only
    Random rng(2);
    Addr addr = 0, prev = 0;
    AccessType type = AccessType::Read;
    p.next(rng, prev, type);
    for (int i = 0; i < 100; ++i) {
        p.next(rng, addr, type);
        ASSERT_EQ(addr, prev + 64);
        prev = addr;
    }
}

TEST(StridePattern, CursorWrapsAroundFootprint)
{
    StridePattern p(1024, 64, 0.0); // 8 read slots of 64 B
    Random rng(3);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    std::set<Addr> seen;
    for (int i = 0; i < 64; ++i) {
        p.next(rng, addr, type);
        seen.insert(addr);
    }
    // Half the footprint, one slot per stride.
    EXPECT_EQ(seen.size(), 8u);
}

TEST(StridePattern, WriteFractionIsRespected)
{
    StridePattern p(1_MiB, 64, 0.3);
    Random rng(4);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        p.next(rng, addr, type);
        writes += type == AccessType::Write;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.3, 0.02);
}

TEST(StridePattern, RejectsDegenerateConfig)
{
    EXPECT_THROW(StridePattern(64, 0, 0.5), check::CheckError);
    EXPECT_THROW(StridePattern(64, 64, 0.5), check::CheckError);
    EXPECT_THROW(StridePattern(1_MiB, 64, 1.5), check::CheckError);
}

TEST(ZipfRegionPattern, AddressesStayInFootprint)
{
    ZipfRegionPattern p(64, 4096, 0.8, 0.5, 8);
    Random rng(5);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    for (int i = 0; i < 20000; ++i) {
        p.next(rng, addr, type);
        ASSERT_LT(addr, p.footprintBytes());
        ASSERT_EQ(addr % 64, 0u);
    }
}

TEST(ZipfRegionPattern, BurstIsSequentialWithinRegion)
{
    ZipfRegionPattern p(64, 4096, 0.8, 0.0, 8);
    Random rng(6);
    Addr addr = 0, prev = 0;
    AccessType type = AccessType::Read;
    p.next(rng, prev, type);
    int sequential = 0, total = 0;
    for (int i = 0; i < 1000; ++i) {
        p.next(rng, addr, type);
        sequential += addr == prev + 64;
        ++total;
        prev = addr;
    }
    // Bursts average ~4.5 blocks, so ~3.5/4.5 of steps are +64.
    EXPECT_GT(sequential, total / 2);
}

TEST(ZipfRegionPattern, WholeRegionSweepCoversEveryBlock)
{
    ZipfRegionPattern p(4, 4096, 0.5, 0.0, 64);
    Random rng(7);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    // First burst: 64 sequential blocks of one region from offset 0.
    p.next(rng, addr, type);
    const Addr region_base = addr;
    EXPECT_EQ(region_base % 4096, 0u);
    for (int i = 1; i < 64; ++i) {
        p.next(rng, addr, type);
        ASSERT_EQ(addr, region_base + static_cast<Addr>(i) * 64);
    }
}

TEST(ZipfRegionPattern, BurstHasUniformAccessType)
{
    ZipfRegionPattern p(4, 4096, 0.5, 0.5, 64);
    Random rng(8);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    for (int burst = 0; burst < 50; ++burst) {
        p.next(rng, addr, type);
        const AccessType first = type;
        for (int i = 1; i < 64; ++i) {
            p.next(rng, addr, type);
            ASSERT_EQ(type, first) << "burst " << burst;
        }
    }
}

TEST(ZipfRegionPattern, PopularRegionsDominante)
{
    ZipfRegionPattern p(256, 4096, 1.0, 0.5, 8);
    Random rng(9);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    std::vector<int> region_counts(256, 0);
    for (int i = 0; i < 100000; ++i) {
        p.next(rng, addr, type);
        ++region_counts[addr / 4096];
    }
    int head = 0, tail = 0;
    for (int r = 0; r < 16; ++r)
        head += region_counts[r];
    for (int r = 240; r < 256; ++r)
        tail += region_counts[r];
    EXPECT_GT(head, 4 * tail);
}

TEST(ZipfRegionPattern, RejectsBadConfig)
{
    EXPECT_THROW(ZipfRegionPattern(0, 4096, 0.8, 0.5), check::CheckError);
    EXPECT_THROW(ZipfRegionPattern(4, 100, 0.8, 0.5), check::CheckError);
    EXPECT_THROW(ZipfRegionPattern(4, 4096, 0.8, 0.5, 0), check::CheckError);
    EXPECT_THROW(ZipfRegionPattern(4, 4096, 0.8, 2.0), check::CheckError);
}

TEST(ChasePattern, UniformBlockAlignedAddresses)
{
    ChasePattern p(1_MiB, 0.1);
    Random rng(10);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    std::set<Addr> seen;
    for (int i = 0; i < 20000; ++i) {
        p.next(rng, addr, type);
        ASSERT_LT(addr, 1_MiB);
        ASSERT_EQ(addr % 64, 0u);
        seen.insert(addr);
    }
    // 16384 blocks; 20000 uniform draws should cover most of them.
    EXPECT_GT(seen.size(), 10000u);
}

TEST(ChasePattern, WriteFraction)
{
    ChasePattern p(1_MiB, 0.15);
    Random rng(11);
    Addr addr = 0;
    AccessType type = AccessType::Read;
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        p.next(rng, addr, type);
        writes += type == AccessType::Write;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.15, 0.01);
}

TEST(ChasePattern, RejectsBadConfig)
{
    EXPECT_THROW(ChasePattern(32, 0.1), check::CheckError);
    EXPECT_THROW(ChasePattern(1_MiB, -0.1), check::CheckError);
}

} // namespace
} // namespace rrm::trace
