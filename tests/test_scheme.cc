/**
 * @file
 * Tests for the Table VI scheme definitions.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "system/scheme.hh"

namespace rrm::sys
{
namespace
{

TEST(Scheme, StaticNames)
{
    EXPECT_EQ(Scheme::staticScheme(pcm::WriteMode::Sets7).name(),
              "Static-7-SETs");
    EXPECT_EQ(Scheme::staticScheme(pcm::WriteMode::Sets3).name(),
              "Static-3-SETs");
    EXPECT_EQ(Scheme::rrmScheme().name(), "RRM");
    EXPECT_EQ(Scheme::adaptiveRrmScheme().name(), "Adaptive-RRM");
}

TEST(Scheme, GlobalRefreshModeFollowsScheme)
{
    EXPECT_EQ(Scheme::staticScheme(pcm::WriteMode::Sets4)
                  .globalRefreshMode(),
              pcm::WriteMode::Sets4);
    // The RRM schemes global-refresh with slow (7-SETs) writes.
    EXPECT_EQ(Scheme::rrmScheme().globalRefreshMode(),
              pcm::WriteMode::Sets7);
    EXPECT_EQ(Scheme::adaptiveRrmScheme().globalRefreshMode(),
              pcm::WriteMode::Sets7);
}

TEST(Scheme, AllPaperSchemesTable6Order)
{
    const auto all = allPaperSchemes();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name(), "Static-7-SETs");
    EXPECT_EQ(all[1].name(), "Static-6-SETs");
    EXPECT_EQ(all[2].name(), "Static-5-SETs");
    EXPECT_EQ(all[3].name(), "Static-4-SETs");
    EXPECT_EQ(all[4].name(), "Static-3-SETs");
    EXPECT_EQ(all[5].name(), "RRM");
}

TEST(Scheme, StaticSchemesExcludeRrm)
{
    const auto stat = staticSchemes();
    ASSERT_EQ(stat.size(), 5u);
    for (const auto &s : stat)
        // rrm-lint: allow(layer-scheme-dispatch) factory metadata test
        EXPECT_EQ(s.kind, SchemeKind::Static);
}

TEST(Scheme, AllSchemesAppendAdaptiveRrmAndRrmQos)
{
    const auto all = allSchemes();
    ASSERT_EQ(all.size(), allPaperSchemes().size() + 2);
    EXPECT_EQ(all[all.size() - 2].name(), "Adaptive-RRM");
    EXPECT_EQ(all.back().name(), "RRM-QoS");
}

TEST(Scheme, RrmQosSchemeProperties)
{
    const Scheme s = Scheme::rrmQosScheme();
    EXPECT_EQ(s.name(), "RRM-QoS");
    EXPECT_TRUE(s.usesMonitor());
    EXPECT_EQ(s.globalRefreshMode(), pcm::WriteMode::Sets7);
    EXPECT_EQ(parseScheme("rrm-qos"), s);
}

TEST(Scheme, ParseSchemeRoundTripsEveryScheme)
{
    for (const Scheme &s : allSchemes())
        EXPECT_EQ(parseScheme(s.name()), s);
}

TEST(Scheme, ParseSchemeIgnoresCase)
{
    EXPECT_EQ(parseScheme("rrm"), Scheme::rrmScheme());
    EXPECT_EQ(parseScheme("adaptive-rrm"), Scheme::adaptiveRrmScheme());
    EXPECT_EQ(parseScheme("STATIC-5-sets"),
              Scheme::staticScheme(pcm::WriteMode::Sets5));
}

TEST(Scheme, ParseSchemeRejectsUnknownNames)
{
    EXPECT_THROW(parseScheme("Static-8-SETs"), FatalError);
    EXPECT_THROW(parseScheme(""), FatalError);
}

TEST(Scheme, ParseSchemeErrorListsEveryValidName)
{
    try {
        parseScheme("nonsense");
        FAIL() << "parseScheme accepted an unknown name";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        for (const Scheme &s : allSchemes()) {
            EXPECT_NE(msg.find(s.name()), std::string::npos)
                << "error message misses valid name " << s.name();
        }
    }
}

TEST(Scheme, EqualityIgnoresStaticModeForRrm)
{
    Scheme a = Scheme::rrmScheme();
    Scheme b = Scheme::rrmScheme();
    b.staticMode = pcm::WriteMode::Sets3;
    EXPECT_EQ(a, b);
    EXPECT_NE(Scheme::staticScheme(pcm::WriteMode::Sets3),
              Scheme::staticScheme(pcm::WriteMode::Sets4));
}

} // namespace
} // namespace rrm::sys
