/**
 * @file
 * Tests for benchmark profiles, the trace generator, the trace
 * source's checkpoint seek, and workloads.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "trace/generator.hh"
#include "trace/source.hh"
#include "trace/workload.hh"

namespace rrm::trace
{
namespace
{

class AllBenchmarks : public ::testing::TestWithParam<Benchmark>
{};

TEST_P(AllBenchmarks, ProfileIsWellFormed)
{
    const BenchmarkProfile &p = benchmarkProfile(GetParam());
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.memOpsPerKiloInstr, 0.0);
    EXPECT_LE(p.memOpsPerKiloInstr, 1000.0);
    EXPECT_GT(p.tableMpki, 0.0);
    EXPECT_FALSE(p.patterns.empty());
    for (const auto &spec : p.patterns) {
        EXPECT_GT(spec.weight, 0.0);
        EXPECT_GE(spec.writeFraction, 0.0);
        EXPECT_LE(spec.writeFraction, 1.0);
        EXPECT_GT(spec.footprintBytes, 0u);
    }
}

TEST_P(AllBenchmarks, FootprintFitsPerCoreSlice)
{
    // 8 GB / 4 cores.
    EXPECT_LE(benchmarkProfile(GetParam()).footprintBytes(), 2_GiB);
}

TEST_P(AllBenchmarks, NameRoundTrips)
{
    EXPECT_EQ(benchmarkFromName(benchmarkName(GetParam())),
              GetParam());
}

TEST_P(AllBenchmarks, GeneratorStaysInFootprint)
{
    const BenchmarkProfile &p = benchmarkProfile(GetParam());
    TraceGenerator gen(p, 42);
    for (int i = 0; i < 50000; ++i) {
        const TraceRecord rec = gen.next();
        ASSERT_LT(rec.addr, gen.footprintBytes());
    }
}

TEST_P(AllBenchmarks, GeneratorIsDeterministicPerSeed)
{
    const BenchmarkProfile &p = benchmarkProfile(GetParam());
    TraceGenerator a(p, 7), b(p, 7);
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.type, rb.type);
        ASSERT_EQ(ra.gapInstructions, rb.gapInstructions);
    }
}

TEST_P(AllBenchmarks, DifferentSeedsProduceDifferentStreams)
{
    const BenchmarkProfile &p = benchmarkProfile(GetParam());
    TraceGenerator a(p, 1), b(p, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().addr == b.next().addr;
    EXPECT_LT(same, 500);
}

TEST_P(AllBenchmarks, GapMeanMatchesMemoryIntensity)
{
    const BenchmarkProfile &p = benchmarkProfile(GetParam());
    TraceGenerator gen(p, 3);
    double gap_sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        gap_sum += gen.next().gapInstructions;
    const double expected =
        (1000.0 - p.memOpsPerKiloInstr) / p.memOpsPerKiloInstr;
    EXPECT_NEAR(gap_sum / n, expected, expected * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Table7, AllBenchmarks,
                         ::testing::ValuesIn(allBenchmarks),
                         [](const auto &info) {
                             return std::string(
                                 benchmarkName(info.param));
                         });

TEST(TraceGenerator, ComponentsDoNotOverlap)
{
    // Build a profile with tiny distinguishable components and check
    // each pattern's addresses stay within its slot.
    const BenchmarkProfile &p = benchmarkProfile(Benchmark::GemsFDTD);
    TraceGenerator gen(p, 5);
    // Total footprint is the sum of the component footprints.
    std::uint64_t sum = 0;
    for (const auto &spec : p.patterns)
        sum += (spec.footprintBytes + 63) / 64 * 64;
    EXPECT_EQ(gen.footprintBytes(), sum);
}

TEST(TraceGenerator, UnknownBenchmarkNameIsFatal)
{
    EXPECT_THROW(benchmarkFromName("quake3"), FatalError);
}

/**
 * After `src.seek(skip)`, the next `n` records must be records
 * skip..skip+n-1 of a fresh generator's stream.
 */
void
expectSeekedStream(TraceSource &src, const BenchmarkProfile &profile,
                   std::uint64_t seed, std::uint64_t skip, std::uint64_t n)
{
    src.seek(skip);
    EXPECT_EQ(src.consumed(), skip);
    TraceGenerator ref(profile, seed);
    for (std::uint64_t i = 0; i < skip; ++i)
        ref.next();
    for (std::uint64_t i = 0; i < n; ++i) {
        const TraceRecord got = src.next();
        const TraceRecord want = ref.next();
        ASSERT_EQ(got.addr, want.addr) << "record " << skip + i;
        ASSERT_EQ(got.type, want.type) << "record " << skip + i;
        ASSERT_EQ(got.gapInstructions, want.gapInstructions)
            << "record " << skip + i;
    }
    EXPECT_EQ(src.consumed(), skip + n);
}

TEST(TraceSource, SeekGenerateSource)
{
    const BenchmarkProfile &profile =
        benchmarkProfile(Benchmark::GemsFDTD);
    const std::uint64_t seed = 21;
    TraceSource src = TraceSource::generate(profile, seed);
    expectSeekedStream(src, profile, seed, 5000, 1000);
}

TEST(TraceSource, SeekOnUsedStreamPanics)
{
    TraceSource src =
        TraceSource::generate(benchmarkProfile(Benchmark::Lbm), 1);
    src.next();
    EXPECT_THROW(src.seek(10), check::CheckError);
}

TEST(Workload, SingleWorkloadRunsFourCopies)
{
    const Workload w = singleWorkload(Benchmark::Mcf);
    EXPECT_EQ(w.name, "mcf");
    for (Benchmark b : w.perCore)
        EXPECT_EQ(b, Benchmark::Mcf);
}

TEST(Workload, MixCompositionsMatchTable7)
{
    const Workload m1 = mix1Workload();
    EXPECT_EQ(m1.name, "MIX_1");
    EXPECT_EQ(m1.perCore[0], Benchmark::Mcf);
    EXPECT_EQ(m1.perCore[1], Benchmark::Bwaves);
    EXPECT_EQ(m1.perCore[2], Benchmark::Zeusmp);
    EXPECT_EQ(m1.perCore[3], Benchmark::Milc);

    const Workload m2 = mix2Workload();
    EXPECT_EQ(m2.name, "MIX_2");
    EXPECT_EQ(m2.perCore[0], Benchmark::GemsFDTD);
    EXPECT_EQ(m2.perCore[1], Benchmark::Libquantum);
    EXPECT_EQ(m2.perCore[2], Benchmark::Lbm);
    EXPECT_EQ(m2.perCore[3], Benchmark::Leslie3d);
}

TEST(Workload, StandardSetHasElevenEntries)
{
    const auto all = standardWorkloads();
    ASSERT_EQ(all.size(), 11u);
    EXPECT_EQ(all.front().name, "bwaves");
    EXPECT_EQ(all[9].name, "MIX_1");
    EXPECT_EQ(all[10].name, "MIX_2");
}

TEST(Workload, FromNameFindsAllStandardWorkloads)
{
    for (const auto &w : standardWorkloads())
        EXPECT_EQ(workloadFromName(w.name).name, w.name);
    EXPECT_THROW(workloadFromName("doom"), FatalError);
}

} // namespace
} // namespace rrm::trace
