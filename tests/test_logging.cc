/**
 * @file
 * Tests for the logging / error-reporting primitives.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace rrm
{
namespace
{

/**
 * Captures warn()/inform() output for one test and restores the
 * default sink, severity filter, and warn-once state afterwards.
 */
class CapturedLog
{
  public:
    CapturedLog()
    {
        log_detail::setLogSink(
            [this](LogSeverity sev, const std::string &msg) {
                messages_.emplace_back(sev, msg);
            });
    }

    ~CapturedLog()
    {
        log_detail::setLogSink({});
        log_detail::setMinSeverity(LogSeverity::Info);
        log_detail::resetWarnOnce();
    }

    const std::vector<std::pair<LogSeverity, std::string>> &
    messages() const
    {
        return messages_;
    }

  private:
    std::vector<std::pair<LogSeverity, std::string>> messages_;
};

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, FatalMessageIsPrefixedAndConcatenated)
{
    try {
        fatal("value ", 42, " is ", "bad");
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value 42 is bad");
    }
}

TEST(Logging, WarnIncrementsCounter)
{
    log_detail::setQuiet(true);
    const auto before = log_detail::warnCount();
    warn("something odd: ", 7);
    warn("again");
    EXPECT_EQ(log_detail::warnCount(), before + 2);
    log_detail::setQuiet(false);
}

TEST(Logging, SinkReceivesWarnAndInform)
{
    CapturedLog log;
    inform("status ", 1);
    warn("trouble ", 2);

    ASSERT_EQ(log.messages().size(), 2u);
    EXPECT_EQ(log.messages()[0].first, LogSeverity::Info);
    EXPECT_EQ(log.messages()[0].second, "status 1");
    EXPECT_EQ(log.messages()[1].first, LogSeverity::Warn);
    EXPECT_EQ(log.messages()[1].second, "trouble 2");
}

TEST(Logging, MinSeverityFiltersBeforeTheSink)
{
    CapturedLog log;
    log_detail::setMinSeverity(LogSeverity::Warn);
    const auto before = log_detail::warnCount();
    inform("dropped");
    warn("kept");

    ASSERT_EQ(log.messages().size(), 1u);
    EXPECT_EQ(log.messages()[0].second, "kept");
    // The counter still counts warns even when they are filtered out.
    log_detail::setQuiet(true);
    warn("quiet but counted");
    log_detail::setQuiet(false);
    EXPECT_EQ(log_detail::warnCount(), before + 2);
}

TEST(Logging, WarnOnceEmitsOncePerCategory)
{
    CapturedLog log;
    warn_once("featureX", "approximate model");
    warn_once("featureX", "approximate model");
    warn_once("featureY", "other note");

    ASSERT_EQ(log.messages().size(), 2u);
    EXPECT_EQ(log.messages()[0].second, "featureX: approximate model");
    EXPECT_EQ(log.messages()[1].second, "featureY: other note");
}

TEST(Logging, ResetWarnOnceForgetsCategories)
{
    CapturedLog log;
    warn_once("cat", "first");
    log_detail::resetWarnOnce();
    warn_once("cat", "second");
    ASSERT_EQ(log.messages().size(), 2u);
    EXPECT_EQ(log.messages()[1].second, "cat: second");
}

TEST(Logging, EmptySinkRestoresDefaultWithoutCrashing)
{
    log_detail::setLogSink({});
    log_detail::setQuiet(true);
    EXPECT_NO_THROW(warn("to the default sink"));
    log_detail::setQuiet(false);
}

} // namespace
} // namespace rrm
