/**
 * @file
 * Tests for the logging / error-reporting primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace rrm
{
namespace
{

using testing::internal::CaptureStderr;
using testing::internal::CaptureStdout;
using testing::internal::GetCapturedStderr;
using testing::internal::GetCapturedStdout;

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

TEST(Logging, WarnAndInformWriteOnePrefixedLine)
{
    CaptureStdout();
    CaptureStderr();
    inform("status ", 1);
    warn("trouble ", 2);
    const std::string err = GetCapturedStderr();
    const std::string out = GetCapturedStdout();
    EXPECT_EQ(out, "info: status 1\n");
    EXPECT_EQ(err, "warn: trouble 2\n");
}

TEST(Logging, ConcurrentWarnsKeepWholeLines)
{
    // Runner workers warn concurrently; each message must stay one
    // unbroken line.
    constexpr int threads = 4;
    constexpr int perThread = 2000;
    CaptureStderr();
    {
        std::atomic<bool> go{false};
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([t, &go] {
                while (!go.load())
                    std::this_thread::yield();
                for (int i = 0; i < perThread; ++i)
                    warn("worker ", t, " message ", i);
            });
        }
        go.store(true);
        for (auto &th : pool)
            th.join();
    }
    std::vector<std::string> expected;
    for (int t = 0; t < threads; ++t)
        for (int i = 0; i < perThread; ++i)
            expected.push_back("warn: worker " + std::to_string(t) +
                               " message " + std::to_string(i));
    std::vector<std::string> lines;
    std::istringstream captured(GetCapturedStderr());
    for (std::string line; std::getline(captured, line);)
        lines.push_back(line);
    std::sort(expected.begin(), expected.end());
    std::sort(lines.begin(), lines.end());
    EXPECT_TRUE(lines == expected) << "lines were split or lost";
}

TEST(Logging, WarnOnceEmitsOncePerCategory)
{
    CaptureStderr();
    warn_once("featureX", "approximate model");
    warn_once("featureX", "approximate model");
    warn_once("featureY", "other note");
    EXPECT_EQ(GetCapturedStderr(), "warn: featureX: approximate model\n"
                                   "warn: featureY: other note\n");
}

} // namespace
} // namespace rrm
