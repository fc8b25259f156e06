/**
 * @file
 * Tests for the Start-Gap wear-leveling substrate.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/check.hh"
#include "common/random.hh"
#include "memctrl/start_gap.hh"

namespace rrm::memctrl
{
namespace
{

TEST(StartGapDomain, InitialMappingIsIdentity)
{
    StartGapDomain d(16, 10);
    for (std::uint64_t l = 0; l < 16; ++l)
        EXPECT_EQ(d.physicalSlot(l), l);
}

TEST(StartGapDomain, MappingIsAlwaysInjective)
{
    StartGapDomain d(16, 1); // rotate on every write
    for (int step = 0; step < 200; ++step) {
        std::set<std::uint64_t> slots;
        for (std::uint64_t l = 0; l < d.numLines(); ++l) {
            const auto s = d.physicalSlot(l);
            EXPECT_LE(s, d.numLines()); // N+1 slots
            EXPECT_NE(s, d.gap()) << "line mapped onto the gap";
            slots.insert(s);
        }
        EXPECT_EQ(slots.size(), d.numLines()) << "step " << step;
        d.onWrite();
    }
}

TEST(StartGapDomain, GapMovesEveryPeriodWrites)
{
    StartGapDomain d(16, 10);
    for (int i = 0; i < 9; ++i)
        EXPECT_FALSE(d.onWrite());
    EXPECT_TRUE(d.onWrite());
    EXPECT_EQ(d.gapMoves(), 1u);
    EXPECT_EQ(d.gap(), 15u);
}

TEST(StartGapDomain, StartAdvancesAfterFullGapSweep)
{
    StartGapDomain d(8, 1);
    EXPECT_EQ(d.start(), 0u);
    // Gap starts at 8; 8 moves bring it to 0, the 9th wraps it and
    // bumps start.
    for (int i = 0; i < 8; ++i)
        d.onWrite();
    EXPECT_EQ(d.gap(), 0u);
    EXPECT_EQ(d.start(), 0u);
    d.onWrite();
    EXPECT_EQ(d.gap(), 8u);
    EXPECT_EQ(d.start(), 1u);
}

TEST(StartGapDomain, EveryLineVisitsEverySlotOverTime)
{
    StartGapDomain d(8, 1);
    std::vector<std::set<std::uint64_t>> visited(8);
    // One full start rotation = (N+1) gap sweeps x (N+1) moves.
    for (int step = 0; step < 9 * 9 + 1; ++step) {
        for (std::uint64_t l = 0; l < 8; ++l)
            visited[l].insert(d.physicalSlot(l));
        d.onWrite();
    }
    for (std::uint64_t l = 0; l < 8; ++l)
        EXPECT_GE(visited[l].size(), 8u) << "line " << l;
}

TEST(StartGapDomain, DegenerateConfigsPanic)
{
    EXPECT_THROW(StartGapDomain(1, 10), check::CheckError);
    EXPECT_THROW(StartGapDomain(8, 0), check::CheckError);
}

TEST(StartGapRemapper, PreservesOffsetsAndDomains)
{
    StartGapParams p;
    p.lineBytes = 256;
    p.linesPerDomain = 64;
    StartGapRemapper remap(1_MiB, p);
    EXPECT_EQ(remap.numDomains(), 64u);

    Random rng(3);
    for (int i = 0; i < 10000; ++i) {
        const Addr addr = rng.uniform(1_MiB);
        const Addr out = remap.remap(addr);
        EXPECT_LT(out, 1_MiB);
        EXPECT_EQ(out % 256, addr % 256) << "intra-line offset moved";
        // Remap never crosses domain boundaries.
        EXPECT_EQ(out / (256 * 64), addr / (256 * 64));
    }
}

TEST(StartGapRemapper, IdentityBeforeAnyRotation)
{
    StartGapParams p;
    p.lineBytes = 256;
    p.linesPerDomain = 1024;
    StartGapRemapper remap(1_MiB, p);
    for (Addr a : {Addr(0), Addr(4096), Addr(1_MiB - 64)})
        EXPECT_EQ(remap.remap(a), a);
}

TEST(StartGapRemapper, PartialDomainPanics)
{
    // 1 MiB at default 4 MB domains is not a whole domain.
    EXPECT_THROW(StartGapRemapper(1_MiB), check::CheckError);
}

TEST(StartGapRemapper, RotationChangesTheMapping)
{
    StartGapParams p;
    p.lineBytes = 256;
    p.linesPerDomain = 16;
    p.gapWritePeriod = 1;
    StartGapRemapper remap(16 * 256, p);
    const Addr probe = 0;
    const Addr before = remap.remap(probe);
    for (int i = 0; i < 20; ++i)
        remap.onWrite(probe);
    // After the gap sweeps past the probe's slot, its physical home
    // must differ.
    EXPECT_NE(remap.remap(probe), before);
}

TEST(StartGapRemapper, SpreadsAHotLineAcrossSlots)
{
    StartGapParams p;
    p.lineBytes = 256;
    p.linesPerDomain = 16;
    p.gapWritePeriod = 4;
    StartGapRemapper remap(16 * 256, p);
    std::set<Addr> homes;
    // Hammer one logical line; wear leveling must migrate it.
    for (int i = 0; i < 16 * 17 * 4 * 4; ++i) {
        homes.insert(remap.remap(0));
        remap.onWrite(0);
    }
    EXPECT_GE(homes.size(), 14u);
}

TEST(StartGapRemapper, GapMoveOverheadMatchesPeriod)
{
    StartGapParams p;
    p.lineBytes = 256;
    p.linesPerDomain = 64;
    p.gapWritePeriod = 100;
    StartGapRemapper remap(1_MiB, p);
    Random rng(9);
    int moves = 0;
    const int writes = 100000;
    for (int i = 0; i < writes; ++i)
        moves += remap.onWrite(rng.uniform(1_MiB));
    // ~1 extra write per 100 demand writes (the paper's <1% figure).
    EXPECT_NEAR(static_cast<double>(moves) / writes, 0.01, 0.002);
}

} // namespace
} // namespace rrm::memctrl
