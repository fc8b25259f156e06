/**
 * @file
 * Tests for the analytic resistance-drift / retention model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hh"
#include "pcm/drift_model.hh"

namespace rrm::pcm
{
namespace
{

TEST(DriftModel, DefaultParamsValidate)
{
    EXPECT_NO_THROW(DriftModel{});
}

TEST(DriftModel, GuardbandGrowsWithIterations)
{
    DriftModel model;
    for (unsigned n = 4; n <= 7; ++n)
        EXPECT_GT(model.guardband(n), model.guardband(n - 1));
}

TEST(DriftModel, BandWidthShrinksWithIterations)
{
    DriftModel model;
    for (unsigned n = 4; n <= 7; ++n)
        EXPECT_LT(model.bandWidth(n), model.bandWidth(n - 1));
}

TEST(DriftModel, RetentionMonotoneInIterations)
{
    DriftModel model;
    for (unsigned n = 4; n <= 7; ++n) {
        EXPECT_GT(model.retentionSeconds(n),
                  model.retentionSeconds(n - 1));
    }
}

TEST(DriftModel, DriftIsZeroAtOrBeforeT0)
{
    DriftModel model;
    EXPECT_DOUBLE_EQ(model.driftDecades(0.0, 0.1), 0.0);
    EXPECT_DOUBLE_EQ(model.driftDecades(-1.0, 0.1), 0.0);
    EXPECT_NEAR(model.driftDecades(1.0, 0.1), 0.0, 1e-12);
}

TEST(DriftModel, DriftFollowsPowerLaw)
{
    DriftModel model;
    const double alpha = 0.1;
    // One decade of time adds alpha decades of resistance.
    EXPECT_NEAR(model.driftDecades(10.0, alpha), alpha, 1e-12);
    EXPECT_NEAR(model.driftDecades(100.0, alpha), 2 * alpha, 1e-12);
}

TEST(DriftModel, TimeToDriftInvertsDrift)
{
    DriftModel model;
    const double alpha = model.params().alpha;
    for (double decades : {0.05, 0.1, 0.3}) {
        const double t = model.timeToDriftSeconds(decades);
        EXPECT_NEAR(model.driftDecades(t, alpha), decades, 1e-9);
    }
}

TEST(DriftModel, RetentionEqualsTimeToCrossGuardband)
{
    DriftModel model;
    for (unsigned n = 3; n <= 7; ++n) {
        EXPECT_NEAR(model.retentionSeconds(n),
                    model.timeToDriftSeconds(model.guardband(n)),
                    model.retentionSeconds(n) * 1e-9);
    }
}

/**
 * The fitted defaults should land within ~60% of each Table I
 * retention value (the paper's table comes from a multi-factor model
 * this analytic fit approximates — see drift_model.hh).
 */
TEST(DriftModel, ApproximatesTable1Retention)
{
    DriftModel model;
    for (WriteMode m : allWriteModes) {
        const double table = retentionSeconds(m);
        const double analytic = model.retentionSeconds(m);
        const double ratio = analytic / table;
        EXPECT_GT(ratio, 1.0 / 1.6) << writeModeName(m);
        EXPECT_LT(ratio, 1.6) << writeModeName(m);
    }
}

TEST(DriftModel, FasterDriftShortensRetention)
{
    DriftParams fast;
    fast.alpha = 0.12;
    DriftParams slow;
    slow.alpha = 0.08;
    EXPECT_LT(DriftModel(fast).retentionSeconds(5u),
              DriftModel(slow).retentionSeconds(5u));
}

TEST(DriftModel, LargerSeparationLengthensRetention)
{
    DriftParams wide;
    wide.levelSeparation = 0.6;
    DriftParams narrow;
    narrow.levelSeparation = 0.5;
    EXPECT_GT(DriftModel(wide).retentionSeconds(5u),
              DriftModel(narrow).retentionSeconds(5u));
}

TEST(DriftModel, SampledRetentionVariesAndStaysPositive)
{
    DriftModel model;
    Random rng(99);
    double min_v = 1e300, max_v = 0;
    for (int i = 0; i < 2000; ++i) {
        const double r = model.sampleRetentionSeconds(7, rng);
        EXPECT_GT(r, 0.0);
        min_v = std::min(min_v, r);
        max_v = std::max(max_v, r);
    }
    // Process variation must actually spread the distribution.
    EXPECT_GT(max_v / min_v, 1.5);
}

TEST(DriftModel, SampledRetentionCentersOnNominal)
{
    DriftModel model;
    Random rng(100);
    double log_sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        log_sum += std::log(model.sampleRetentionSeconds(5, rng));
    const double geo = std::exp(log_sum / n);
    const double nominal = model.retentionSeconds(5u);
    EXPECT_GT(geo / nominal, 0.5);
    EXPECT_LT(geo / nominal, 2.0);
}

TEST(DriftModel, InvalidParamsPanic)
{
    DriftParams p;
    p.alpha = 0.0;
    EXPECT_THROW(DriftModel{p}, check::CheckError);

    DriftParams q;
    q.levelSeparation = -1.0;
    EXPECT_THROW(DriftModel{q}, check::CheckError);

    DriftParams r;
    r.bandWidth0 = 0.1; // 7-SET band width would go negative
    EXPECT_THROW(DriftModel{r}, check::CheckError);

    DriftParams s;
    s.bandWidthStep = 0.0; // no precision gain -> 3-SET guardband <= 0
    s.bandWidth0 = 0.6;
    s.levelSeparation = 0.5;
    EXPECT_THROW(DriftModel{s}, check::CheckError);
}

} // namespace
} // namespace rrm::pcm
