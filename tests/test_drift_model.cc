/**
 * @file
 * Tests for the analytic resistance-drift / retention model.
 */

#include <gtest/gtest.h>

#include "pcm/drift_model.hh"

namespace rrm::pcm
{
namespace
{

TEST(DriftModel, GuardbandGrowsWithIterations)
{
    for (unsigned n = 4; n <= 7; ++n)
        EXPECT_GT(drift::guardband(n), drift::guardband(n - 1));
}

TEST(DriftModel, BandWidthShrinksWithIterations)
{
    for (unsigned n = 4; n <= 7; ++n)
        EXPECT_LT(drift::bandWidth(n), drift::bandWidth(n - 1));
}

TEST(DriftModel, RetentionMonotoneInIterations)
{
    for (unsigned n = 4; n <= 7; ++n) {
        EXPECT_GT(drift::retentionSeconds(n),
                  drift::retentionSeconds(n - 1));
    }
}

/**
 * The fitted constants should land within ~60% of each Table I
 * retention value (the paper's table comes from a multi-factor model
 * this analytic fit approximates — see drift_model.hh).
 */
TEST(DriftModel, ApproximatesTable1Retention)
{
    for (WriteMode m : allWriteModes) {
        const double table = retentionSeconds(m);
        const double analytic = drift::retentionSeconds(m);
        const double ratio = analytic / table;
        EXPECT_GT(ratio, 1.0 / 1.6) << writeModeName(m);
        EXPECT_LT(ratio, 1.6) << writeModeName(m);
    }
}

} // namespace
} // namespace rrm::pcm
