/**
 * @file
 * Mix-spec grammar tests (DESIGN.md section 17): round-trips of
 * every canned workload through mixSpecOf/tenantSpecOf and back,
 * spec expansion rules (counts, case-insensitive names, tenant
 * grouping), and the error contract — every malformed spec is
 * aggregated into one fatal() listing each violation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "trace/workload.hh"

namespace rrm::trace
{
namespace
{

// ---- Round-trips ----

TEST(WorkloadSpec, EveryCannedWorkloadRoundTripsThroughTheGrammar)
{
    for (const Workload &w : standardWorkloads()) {
        const std::string spec = mixSpecOf(w);
        Workload back;
        const std::vector<std::string> errors =
            parseWorkloadSpec(spec, tenantSpecOf(w), back);
        EXPECT_TRUE(errors.empty()) << w.name << ": " << spec;
        EXPECT_EQ(back.perCore, w.perCore) << w.name;
        EXPECT_EQ(back.numTenants(), w.numTenants()) << w.name;
    }
}

TEST(WorkloadSpec, CannedMixesKeepTheirTableViiAssignments)
{
    // The canned 4-core shapes stay available and unchanged next to
    // the N-core grammar.
    const Workload m1 = mix1Workload();
    ASSERT_EQ(m1.numCores(), workloadCores);
    EXPECT_EQ(mixSpecOf(m1), "mcf,bwaves,zeusmp,milc");
    const Workload m2 = mix2Workload();
    ASSERT_EQ(m2.numCores(), workloadCores);
    EXPECT_EQ(mixSpecOf(m2), "GemsFDTD,libquantum,lbm,leslie3d");
    EXPECT_FALSE(m1.multiTenant());
    EXPECT_FALSE(m2.multiTenant());
}

TEST(WorkloadSpec, MixSpecOfCollapsesConsecutiveRunsOnly)
{
    const Workload w = workloadFromSpec("lbm:2,GemsFDTD,lbm");
    EXPECT_EQ(w.name, "lbm:2,GemsFDTD,lbm");
    EXPECT_EQ(w.numCores(), 4u);
}

// ---- Expansion rules ----

TEST(WorkloadSpec, CountsExpandInOrder)
{
    const Workload w = workloadFromSpec("zeusmp,lbm,lbm,milc:2");
    const std::vector<Benchmark> want = {
        Benchmark::Zeusmp, Benchmark::Lbm, Benchmark::Lbm,
        Benchmark::Milc, Benchmark::Milc};
    EXPECT_EQ(w.perCore, want);
    EXPECT_EQ(w.name, "zeusmp,lbm:2,milc:2");
}

TEST(WorkloadSpec, BenchmarkNamesMatchCaseInsensitively)
{
    const Workload w = workloadFromSpec("LBM:2,gemsfdtd:2");
    EXPECT_EQ(w.perCore[0], Benchmark::Lbm);
    EXPECT_EQ(w.perCore[2], Benchmark::GemsFDTD);
    // The canonical name uses the table spelling, not the input's.
    EXPECT_EQ(w.name, "lbm:2,GemsFDTD:2");
}

TEST(WorkloadSpec, TenantGroupingAttachesPerCore)
{
    const Workload w =
        workloadFromSpec("lbm:2,GemsFDTD:2", "0,0,1,1");
    ASSERT_EQ(w.tenantOf, (std::vector<unsigned>{0, 0, 1, 1}));
    EXPECT_TRUE(w.multiTenant());
    EXPECT_EQ(w.numTenants(), 2u);
    EXPECT_EQ(tenantSpecOf(w), "0,0,1,1");
}

TEST(WorkloadSpec, OmittedTenantsMeanSingleTenant)
{
    const Workload w = workloadFromSpec("lbm:8");
    EXPECT_TRUE(w.tenantOf.empty());
    EXPECT_FALSE(w.multiTenant());
    EXPECT_EQ(tenantSpecOf(w), "");
}

// ---- Error contract ----

/** The fatal() message workloadFromSpec() raises for a bad spec. */
std::string
specError(const std::string &mix, const std::string &tenants)
{
    try {
        workloadFromSpec(mix, tenants);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "accepted mix '" << mix << "' tenants '" << tenants
                  << "'";
    return "";
}

TEST(WorkloadSpec, UnknownBenchmarkIsOneNamedError)
{
    Workload out;
    const std::vector<std::string> errors =
        parseWorkloadSpec("nosuchbench", "", out);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("nosuchbench"), std::string::npos);
}

TEST(WorkloadSpec, ZeroCoreCountIsAnError)
{
    Workload out;
    const std::vector<std::string> errors =
        parseWorkloadSpec("lbm:0", "", out);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("zero cores"), std::string::npos);
}

TEST(WorkloadSpec, MalformedCountAndEmptyEntriesAreErrors)
{
    Workload out;
    EXPECT_EQ(parseWorkloadSpec("lbm:x", "", out).size(), 1u);
    EXPECT_EQ(parseWorkloadSpec("lbm,,milc", "", out).size(), 1u);
    EXPECT_EQ(parseWorkloadSpec("", "", out).size(), 1u);
}

TEST(WorkloadSpec, OverflowingCountIsOneNamedError)
{
    // 2^32 + 1 does not fit a core count: no 4 G-core expansion.
    const std::string msg = specError("lbm:4294967297", "");
    EXPECT_NE(msg.find("1 problem(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'lbm:4294967297'"), std::string::npos) << msg;
}

TEST(WorkloadSpec, OverflowingTenantIdIsOneNamedError)
{
    // 2^32 + 1 does not fit a tenant id: no truncation to tenant 1.
    const std::string msg = specError("lbm,GemsFDTD", "0,4294967297");
    EXPECT_NE(msg.find("1 problem(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'4294967297'"), std::string::npos) << msg;
}

TEST(WorkloadSpec, MixBeyondCoreLimitIsOneNamedError)
{
    // Counts that fit an unsigned but exceed the core limit, alone or
    // as a running total, fail before they expand.
    for (const char *mix : {"lbm:65", "lbm:40,mcf:40", "lbm:4000000000"}) {
        const std::string msg = specError(mix, "");
        EXPECT_NE(msg.find("1 problem(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("64-core limit"), std::string::npos) << msg;
    }
    EXPECT_EQ(workloadFromSpec("lbm:32,mcf:32").numCores(),
              maxWorkloadCores);
}

TEST(WorkloadSpec, TenantIdBeyondCoreCountIsAnError)
{
    // Any id at or past the core count is rejected before the
    // contiguity check sizes anything, so the unsigned maximum cannot
    // wrap numTenants() (max id + 1) to 0.
    for (const char *tenants : {"0,4294967295", "0,2"}) {
        Workload out;
        const std::vector<std::string> errors =
            parseWorkloadSpec("lbm:2", tenants, out);
        ASSERT_EQ(errors.size(), 1u) << tenants;
        EXPECT_NE(errors[0].find("not below the 2-core count"),
                  std::string::npos)
            << errors[0];
    }
}

TEST(WorkloadSpec, BadTenantSyntaxIsAnError)
{
    Workload out;
    const std::vector<std::string> errors =
        parseWorkloadSpec("lbm:2", "0,x", out);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("malformed id"), std::string::npos);
}

TEST(WorkloadSpec, TenantSizeMismatchNamesBothNumbers)
{
    Workload out;
    const std::vector<std::string> errors =
        parseWorkloadSpec("lbm:2,GemsFDTD:2", "0,0,1", out);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("3"), std::string::npos);
    EXPECT_NE(errors[0].find("4"), std::string::npos);
}

TEST(WorkloadSpec, NonContiguousTenantIdsAreAnError)
{
    Workload out;
    const std::vector<std::string> errors =
        parseWorkloadSpec("lbm:2", "0,2", out);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("contiguous"), std::string::npos);
}

TEST(WorkloadSpec, EveryViolationAggregatesIntoOneFatal)
{
    // Three independent problems, one parse, one throw listing all.
    Workload out;
    const std::vector<std::string> errors =
        parseWorkloadSpec("nosuch,lbm:0,milc:y", "", out);
    EXPECT_EQ(errors.size(), 3u);

    try {
        workloadFromSpec("nosuch,lbm:0,milc:y");
        FAIL() << "workloadFromSpec accepted a malformed spec";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("3 problem(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("nosuch"), std::string::npos);
        EXPECT_NE(msg.find("zero cores"), std::string::npos);
        EXPECT_NE(msg.find("malformed count"), std::string::npos);
    }
}

TEST(WorkloadSpec, TenantErrorsRideTheSameFatal)
{
    EXPECT_THROW(workloadFromSpec("lbm:2", "0,1,1"), FatalError);
    EXPECT_THROW(workloadFromSpec("lbm:2", "1,1"), FatalError);
}

} // namespace
} // namespace rrm::trace
