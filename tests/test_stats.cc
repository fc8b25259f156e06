/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hh"
#include "stats/stats.hh"

namespace rrm::stats
{
namespace
{

TEST(Scalar, AccumulatesAndResets)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("counter", "a counter");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(10.0);
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
    g.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(VectorStat, BinsAndTotal)
{
    StatGroup g("g");
    VectorStat &v = g.addVector("banks", "per bank", {"b0", "b1", "b2"});
    v.add(0);
    v.add(1, 2.0);
    v.add(2, 3.0);
    EXPECT_DOUBLE_EQ(v.value(0), 1.0);
    EXPECT_DOUBLE_EQ(v.value(1), 2.0);
    EXPECT_DOUBLE_EQ(v.value(2), 3.0);
    EXPECT_DOUBLE_EQ(v.total(), 6.0);
    EXPECT_EQ(v.size(), 3u);
}

TEST(VectorStat, OutOfRangeBinPanics)
{
    StatGroup g("g");
    VectorStat &v = g.addVector("v", "d", {"only"});
    EXPECT_THROW(v.add(1), check::CheckError);
    EXPECT_THROW(v.value(5), check::CheckError);
}

TEST(Formula, EvaluatesLazily)
{
    StatGroup g("g");
    Scalar &hits = g.addScalar("hits", "h");
    Scalar &total = g.addScalar("total", "t");
    Formula &ratio = g.addFormula("ratio", "hit ratio", [&] {
        return total.value() > 0 ? hits.value() / total.value() : 0.0;
    });
    EXPECT_DOUBLE_EQ(ratio.value(), 0.0);
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 0.75);
}

TEST(DistributionStat, CountsBucketsAndSamples)
{
    StatGroup g("g");
    DistributionStat &d =
        g.addDistribution("lat", "latency", {100, 200});
    d.add(50);
    d.add(150);
    d.add(250, 2);
    EXPECT_EQ(d.histogram().count(0), 1u);
    EXPECT_EQ(d.histogram().count(1), 1u);
    EXPECT_EQ(d.histogram().count(2), 2u);
    EXPECT_EQ(d.samples().count(), 3u);
}

TEST(StatGroup, FindLocatesNestedStats)
{
    StatGroup root("system");
    StatGroup &child = root.addChild("memctrl");
    Scalar &reads = child.addScalar("reads", "read count");
    reads += 7;

    const StatBase *found = root.find("memctrl.reads");
    ASSERT_NE(found, nullptr);
    const auto *as_scalar = dynamic_cast<const Scalar *>(found);
    ASSERT_NE(as_scalar, nullptr);
    EXPECT_DOUBLE_EQ(as_scalar->value(), 7.0);
}

TEST(StatGroup, FindReturnsNullForUnknownPaths)
{
    StatGroup root("system");
    root.addChild("a").addScalar("x", "x");
    EXPECT_EQ(root.find("b.x"), nullptr);
    EXPECT_EQ(root.find("a.y"), nullptr);
    EXPECT_EQ(root.find("x"), nullptr);
}

TEST(StatGroup, DumpPrefixesDottedPaths)
{
    StatGroup root("sys");
    StatGroup &c = root.addChild("cache");
    c.addScalar("hits", "hit count") += 5;
    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sys.cache.hits"), std::string::npos);
    EXPECT_NE(out.find("hit count"), std::string::npos);
}

TEST(StatGroup, DumpIncludesVectorBinsAndTotal)
{
    StatGroup root("sys");
    root.addVector("v", "vec", {"a", "b"}).add(1, 2.0);
    std::ostringstream os;
    root.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sys.v::a"), std::string::npos);
    EXPECT_NE(out.find("sys.v::b"), std::string::npos);
    EXPECT_NE(out.find("sys.v::total"), std::string::npos);
}

TEST(StatGroup, ResetRecursesIntoChildren)
{
    StatGroup root("sys");
    Scalar &a = root.addScalar("a", "a");
    Scalar &b = root.addChild("c").addScalar("b", "b");
    a += 1;
    b += 2;
    root.reset();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(StatGroup, FormulaSurvivesReset)
{
    StatGroup root("sys");
    Scalar &a = root.addScalar("a", "a");
    Formula &f =
        root.addFormula("f", "2a", [&] { return 2.0 * a.value(); });
    a += 3;
    root.reset();
    a += 1;
    EXPECT_DOUBLE_EQ(f.value(), 2.0);
}

TEST(Formula, ResetIsASilentNoOp)
{
    Formula f("f", "constant", [] { return 5.0; });
    f.reset();
    EXPECT_DOUBLE_EQ(f.value(), 5.0);
}

TEST(Formula, NullFunctionValueIsZero)
{
    Formula f("f", "empty", Formula::Fn{});
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
}

TEST(StatGroup, FindResolvesLaterDuplicateNamedChildren)
{
    // Two same-named children (e.g. per-channel groups registered
    // under one name): find() must try each in registration order,
    // so a stat that only exists in the second still resolves.
    StatGroup root("sys");
    StatGroup &first = root.addChild("chan");
    StatGroup &second = root.addChild("chan");
    first.addScalar("reads", "r") += 1;
    Scalar &writes = second.addScalar("writes", "w");
    writes += 7;

    const auto *hit =
        dynamic_cast<const Scalar *>(root.find("chan.writes"));
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->value(), 7.0);
    // And the first child still wins for names both define.
    EXPECT_EQ(root.find("chan.reads"), first.find("reads"));
}

TEST(StatGroup, FindFallsBackToWholePathStatNames)
{
    // A stat whose own name contains dots is matched as a whole
    // path when no child chain consumes the prefix.
    StatGroup root("sys");
    Scalar &odd = root.addScalar("mem.reads", "dotted name");
    odd += 3;
    EXPECT_EQ(root.find("mem.reads"), &odd);
}

TEST(HistogramStat, BucketGeometryIsLog2)
{
    EXPECT_EQ(HistogramStat::bucketOf(0), 0u);
    EXPECT_EQ(HistogramStat::bucketOf(1), 1u);
    EXPECT_EQ(HistogramStat::bucketOf(2), 2u);
    EXPECT_EQ(HistogramStat::bucketOf(3), 2u);
    EXPECT_EQ(HistogramStat::bucketOf(4), 3u);
    EXPECT_EQ(HistogramStat::bucketOf(7), 3u);
    EXPECT_EQ(HistogramStat::bucketOf(8), 4u);
    EXPECT_EQ(HistogramStat::bucketOf(1023), 10u);
    EXPECT_EQ(HistogramStat::bucketOf(1024), 11u);
    EXPECT_EQ(HistogramStat::bucketOf(~std::uint64_t(0)), 64u);
    static_assert(HistogramStat::kNumBuckets == 65);
}

TEST(HistogramStat, BucketLabelsAreDeterministic)
{
    EXPECT_EQ(HistogramStat::bucketLabel(0), "0");
    EXPECT_EQ(HistogramStat::bucketLabel(1), "[1,2)");
    EXPECT_EQ(HistogramStat::bucketLabel(2), "[2,4)");
    EXPECT_EQ(HistogramStat::bucketLabel(3), "[4,8)");
    EXPECT_EQ(HistogramStat::bucketLabel(64),
              "[9223372036854775808,inf)");
    EXPECT_THROW(HistogramStat::bucketLabel(65), check::CheckError);
}

TEST(HistogramStat, AccumulatesMomentsAndCounts)
{
    StatGroup g("g");
    HistogramStat &h = g.addHistogram("lat", "latency");
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.minSample(), 0u); // empty: both extremes read 0
    EXPECT_EQ(h.maxSample(), 0u);

    h.add(0);
    h.add(1);
    h.add(5);
    h.add(6, 2); // weighted: two samples of value 6
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 18.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.6);
    EXPECT_EQ(h.minSample(), 0u);
    EXPECT_EQ(h.maxSample(), 6u);
    EXPECT_EQ(h.count(0), 1u); // the zero
    EXPECT_EQ(h.count(1), 1u); // [1,2)
    EXPECT_EQ(h.count(2), 0u); // [2,4)
    EXPECT_EQ(h.count(3), 3u); // [4,8): 5, 6, 6
}

TEST(HistogramStat, ResetClearsEverything)
{
    StatGroup g("g");
    HistogramStat &h = g.addHistogram("h", "d");
    h.add(42);
    g.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.minSample(), 0u);
    EXPECT_EQ(h.maxSample(), 0u);
    for (std::size_t i = 0; i < HistogramStat::kNumBuckets; ++i)
        EXPECT_EQ(h.count(i), 0u);
}

TEST(HistogramStat, VisitorDispatchesToHistogramCallback)
{
    struct Probe : StatVisitor
    {
        void visitScalar(const std::string &, const Scalar &) override {}
        void visitVector(const std::string &,
                         const VectorStat &) override
        {}
        void visitFormula(const std::string &, const Formula &) override
        {}
        void visitDistribution(const std::string &,
                               const DistributionStat &) override
        {}
        void
        visitHistogram(const std::string &path,
                       const HistogramStat &stat) override
        {
            paths.push_back(path);
            samples += stat.samples();
        }
        std::vector<std::string> paths;
        std::uint64_t samples = 0;
    };

    StatGroup g("g");
    g.addHistogram("h", "d").add(9);
    Probe probe;
    g.visit(probe);
    ASSERT_EQ(probe.paths.size(), 1u);
    EXPECT_EQ(probe.paths[0], "g.h");
    EXPECT_EQ(probe.samples, 1u);
}

} // namespace
} // namespace rrm::stats
