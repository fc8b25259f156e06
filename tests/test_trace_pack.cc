/**
 * @file
 * Tests for the binary trace-pack format (trace/trace_pack.hh) and
 * TraceSource (trace/source.hh): a pack source must yield the same
 * record stream as the generator for the same (profile, seed),
 * including past the end of the pack (fast-forward tail) and after a
 * checkpoint-resume seek().
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/check.hh"
#include "trace/generator.hh"
#include "trace/source.hh"
#include "trace/trace_pack.hh"

namespace rrm::trace
{
namespace
{

/** Temp .rtp path unique to the current test. */
std::string
packPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(::testing::TempDir()) + info->test_suite_name() +
           "." + info->name() + "." + stem + ".rtp";
}

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 std::uint64_t i)
{
    ASSERT_EQ(a.addr, b.addr) << "record " << i;
    ASSERT_EQ(a.type, b.type) << "record " << i;
    ASSERT_EQ(a.gapInstructions, b.gapInstructions) << "record " << i;
}

TEST(TracePack, RoundTripsThroughFile)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Lbm);
    const std::uint64_t seed = 42;
    constexpr std::uint64_t n = 10000;

    const std::string path = packPath("roundtrip");
    {
        TraceGenerator gen(profile, seed);
        writeTracePack(path, std::string(profile.name), seed, gen, n);
    }

    TracePackReader reader(path);
    EXPECT_EQ(reader.recordCount(), n);
    EXPECT_EQ(reader.header().seed, seed);
    EXPECT_EQ(reader.header().profileName, std::string(profile.name));
    EXPECT_EQ(reader.header().footprintBytes, profile.footprintBytes());

    TraceGenerator ref(profile, seed);
    for (std::uint64_t i = 0; i < n; ++i)
        expectSameRecord(reader.record(i), ref.next(), i);

    std::remove(path.c_str());
}

TEST(TracePack, SourceFastForwardsPastPackEnd)
{
    const BenchmarkProfile &profile =
        benchmarkProfile(Benchmark::GemsFDTD);
    const std::uint64_t seed = 7;
    constexpr std::uint64_t packed = 2000;

    const std::string path = packPath("tail");
    {
        TraceGenerator gen(profile, seed);
        writeTracePack(path, std::string(profile.name), seed, gen,
                       packed);
    }

    // Read well past the pack: the source must splice back onto a
    // live generator with no seam.
    TraceSource src = TraceSource::pack(
        std::make_shared<TracePackReader>(path), profile, seed);
    TraceGenerator ref(profile, seed);
    for (std::uint64_t i = 0; i < 3 * packed; ++i)
        expectSameRecord(src.next(), ref.next(), i);

    std::remove(path.c_str());
}

TEST(TracePack, ReaderRejectsWrongSeed)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Milc);
    const std::string path = packPath("wrongseed");
    {
        TraceGenerator gen(profile, 3);
        writeTracePack(path, std::string(profile.name), 3, gen, 100);
    }
    auto reader = std::make_shared<TracePackReader>(path);
    EXPECT_THROW(TraceSource::pack(reader, profile, 4), FatalError);
    std::remove(path.c_str());
}

TEST(TracePack, ReaderRejectsWrongProfile)
{
    const BenchmarkProfile &milc = benchmarkProfile(Benchmark::Milc);
    const std::string path = packPath("wrongprofile");
    {
        TraceGenerator gen(milc, 3);
        writeTracePack(path, std::string(milc.name), 3, gen, 100);
    }
    auto reader = std::make_shared<TracePackReader>(path);
    EXPECT_THROW(
        TraceSource::pack(reader, benchmarkProfile(Benchmark::Lbm), 3),
        FatalError);
    std::remove(path.c_str());
}

TEST(TracePack, MissingFileIsFatal)
{
    EXPECT_THROW(TracePackReader("/nonexistent/dir/missing.rtp"),
                 FatalError);
}

TEST(TracePack, TruncatedFileIsFatal)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Lbm);
    const std::string path = packPath("truncated");
    {
        TraceGenerator gen(profile, 1);
        writeTracePack(path, std::string(profile.name), 1, gen, 1000);
    }
    // Chop the file short of the record count the header promises.
    // The reader must reject it before mapping, naming the file and
    // the expected/actual sizes.
    ASSERT_EQ(truncate(path.c_str(), 64 + 16 * 10), 0);
    try {
        TracePackReader reader(path);
        FAIL() << "truncated pack was accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("1000 records"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(64 + 16 * 10)),
                  std::string::npos)
            << msg;
    }
    std::remove(path.c_str());
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
    for (std::uint64_t i = 0; i < n; ++i)
        expectSameRecord(src.next(), ref.next(), skip + i);
    EXPECT_EQ(src.consumed(), skip + n);
}

TEST(TraceSource, SeekInsidePackPrefix)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Milc);
    const std::uint64_t seed = 9;
    constexpr std::uint64_t packed = 2000;

    const std::string path = packPath("seek-inside");
    {
        TraceGenerator gen(profile, seed);
        writeTracePack(path, std::string(profile.name), seed, gen,
                       packed);
    }
    // Resume mid-pack, then read across the pack end: the cursor
    // moves without a generator, and the tail still splices on.
    TraceSource src = TraceSource::pack(
        std::make_shared<TracePackReader>(path), profile, seed);
    expectSeekedStream(src, profile, seed, packed / 2, packed);
    std::remove(path.c_str());
}

TEST(TraceSource, SeekPastPackPrefixFastForwards)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Lbm);
    const std::uint64_t seed = 13;
    constexpr std::uint64_t packed = 1000;

    const std::string path = packPath("seek-past");
    {
        TraceGenerator gen(profile, seed);
        writeTracePack(path, std::string(profile.name), seed, gen,
                       packed);
    }
    TraceSource src = TraceSource::pack(
        std::make_shared<TracePackReader>(path), profile, seed);
    expectSeekedStream(src, profile, seed, 3 * packed, packed);
    std::remove(path.c_str());
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

} // namespace
} // namespace rrm::trace
