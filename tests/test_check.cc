/**
 * @file
 * Tests for the contract-checking framework (common/check.hh): macro
 * semantics, the three failure policies, per-kind violation counters,
 * and the build-type gating of RRM_DCHECK. Inline contracts never
 * return on failure; only RRM_AUDIT counts and continues.
 */

#include <gtest/gtest.h>

#include "common/check.hh"

namespace rrm::check
{
namespace
{

/** Every test starts from zero counters and the Throw policy. */
class CheckTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setFailurePolicy(FailurePolicy::Throw);
        resetViolations();
    }

    void TearDown() override
    {
        setFailurePolicy(FailurePolicy::Throw);
        resetViolations();
    }
};

TEST_F(CheckTest, PassingCheckIsFree)
{
    RRM_CHECK(1 + 1 == 2);
    RRM_AUDIT(true, "never shown");
    EXPECT_EQ(totalViolations(), 0u);
    EXPECT_EQ(lastViolationMessage(), "");
}

TEST_F(CheckTest, FailingCheckThrowsTypedErrorUnderThrowPolicy)
{
    try {
        RRM_CHECK(2 + 2 == 5, "arithmetic is broken");
        FAIL() << "RRM_CHECK did not throw";
    } catch (const CheckError &e) {
        EXPECT_EQ(e.kind(), ViolationKind::Check);
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2 + 2 == 5"), std::string::npos) << msg;
        EXPECT_NE(msg.find("test_check.cc"), std::string::npos) << msg;
        EXPECT_NE(msg.find("arithmetic is broken"), std::string::npos)
            << msg;
    }
    EXPECT_EQ(violationCount(ViolationKind::Check), 1u);
}

TEST_F(CheckTest, DetailArgumentsAreStreamed)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    const int got = 7;
    RRM_AUDIT(got == 3, "got ", got, " expected ", 3);
    const std::string msg = lastViolationMessage();
    EXPECT_NE(msg.find("got 7 expected 3"), std::string::npos) << msg;
}

TEST_F(CheckTest, LogAndCountContinuesExecution)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    bool reached = false;
    RRM_AUDIT(false, "first");
    RRM_AUDIT(false, "second");
    reached = true;
    EXPECT_TRUE(reached);
    EXPECT_EQ(violationCount(ViolationKind::Audit), 2u);
    EXPECT_EQ(totalViolations(), 2u);
}

TEST_F(CheckTest, InlineContractsThrowEvenUnderLogAndCount)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    EXPECT_THROW(RRM_CHECK(false, "inline"), CheckError);
    if (dchecksEnabled()) {
        EXPECT_THROW(RRM_DCHECK(false, "inline"), CheckError);
    }
    RRM_AUDIT(false, "deep");
    EXPECT_EQ(violationCount(ViolationKind::Check), 1u);
    EXPECT_EQ(violationCount(ViolationKind::DCheck),
              dchecksEnabled() ? 1u : 0u);
    EXPECT_EQ(violationCount(ViolationKind::Audit), 1u);
}

TEST_F(CheckTest, CountersArePerKind)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    EXPECT_THROW(RRM_CHECK(false), CheckError);
    RRM_AUDIT(false);
    RRM_AUDIT(false);
    EXPECT_EQ(violationCount(ViolationKind::Check), 1u);
    EXPECT_EQ(violationCount(ViolationKind::Audit), 2u);
    EXPECT_EQ(violationCount(ViolationKind::DCheck), 0u);
    EXPECT_EQ(violationCount(ViolationKind::Unreachable), 0u);
    EXPECT_EQ(totalViolations(), 3u);
}

TEST_F(CheckTest, ResetViolationsClearsEverything)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    RRM_AUDIT(false, "stale");
    ASSERT_GT(totalViolations(), 0u);
    resetViolations();
    EXPECT_EQ(totalViolations(), 0u);
    EXPECT_EQ(lastViolationMessage(), "");
}

TEST_F(CheckTest, AuditFailureThrowsAuditKind)
{
    try {
        RRM_AUDIT(false, "deep check");
        FAIL() << "RRM_AUDIT did not throw";
    } catch (const CheckError &e) {
        EXPECT_EQ(e.kind(), ViolationKind::Audit);
    }
    EXPECT_EQ(violationCount(ViolationKind::Audit), 1u);
    EXPECT_EQ(violationCount(ViolationKind::Check), 0u);
}

TEST_F(CheckTest, UnreachableThrowsEvenUnderLogAndCount)
{
    ScopedFailurePolicy policy(FailurePolicy::LogAndCount);
    EXPECT_THROW(RRM_UNREACHABLE("impossible state"), CheckError);
    EXPECT_EQ(violationCount(ViolationKind::Unreachable), 1u);
}

TEST_F(CheckTest, DcheckFollowsBuildConfiguration)
{
    int evaluations = 0;
    auto probe = [&evaluations]() {
        ++evaluations;
        return false;
    };
    if (dchecksEnabled()) {
        EXPECT_THROW(RRM_DCHECK(probe(), "debug-only contract"),
                     CheckError);
        EXPECT_EQ(evaluations, 1);
        EXPECT_EQ(violationCount(ViolationKind::DCheck), 1u);
    } else {
        RRM_DCHECK(probe(), "debug-only contract");
        // Compiled out: the condition must not even be evaluated.
        EXPECT_EQ(evaluations, 0);
        EXPECT_EQ(violationCount(ViolationKind::DCheck), 0u);
    }
}

TEST_F(CheckTest, ScopedPolicySavesAndRestores)
{
    ASSERT_EQ(failurePolicy(), FailurePolicy::Throw);
    {
        ScopedFailurePolicy outer(FailurePolicy::LogAndCount);
        EXPECT_EQ(failurePolicy(), FailurePolicy::LogAndCount);
        {
            ScopedFailurePolicy inner(FailurePolicy::Abort);
            EXPECT_EQ(failurePolicy(), FailurePolicy::Abort);
        }
        EXPECT_EQ(failurePolicy(), FailurePolicy::LogAndCount);
    }
    EXPECT_EQ(failurePolicy(), FailurePolicy::Throw);
}

TEST_F(CheckTest, ViolationKindNamesAreStable)
{
    EXPECT_EQ(violationKindName(ViolationKind::Check), "check");
    EXPECT_EQ(violationKindName(ViolationKind::DCheck), "dcheck");
    EXPECT_EQ(violationKindName(ViolationKind::Unreachable),
              "unreachable");
    EXPECT_EQ(violationKindName(ViolationKind::Audit), "audit");
}

using CheckDeathTest = CheckTest;

TEST_F(CheckDeathTest, AbortPolicyAborts)
{
    ScopedFailurePolicy policy(FailurePolicy::Abort);
    EXPECT_DEATH(RRM_CHECK(false, "fatal contract"), "fatal contract");
}

} // namespace
} // namespace rrm::check
