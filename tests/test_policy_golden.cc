/**
 * @file
 * Policy-equivalence golden tests: the write-policy refactor must not
 * change a single byte of any legacy scheme's output. Each legacy
 * scheme (Static-7-SETs, Static-3-SETs, RRM) runs a fixed seeded
 * configuration with observability on; the produced run record and
 * sampled time series are compared byte-for-byte against records
 * checked in under tests/golden/ that were generated *before* the
 * refactor.
 *
 * Volatile metadata lines (gitDescribe, timestampUtc) are stripped on
 * both sides, so the comparison is stable across commits and hosts;
 * everything else — config echo, results, the full stats tree — must
 * match exactly.
 *
 * Regenerate (only when an intentional behaviour change is made):
 *   RRM_UPDATE_GOLDEN=1 ./build/tests/test_policy_golden
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "system/system.hh"
#include "test_scoped_env.hh"

#ifndef RRM_GOLDEN_DIR
#error "RRM_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace rrm::sys
{
namespace
{

/** Drop the volatile metadata lines of a run record. */
std::string
normalize(const std::string &text)
{
    std::istringstream in(text);
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"gitDescribe\"") != std::string::npos ||
            line.find("\"timestampUtc\"") != std::string::npos) {
            continue;
        }
        out += line;
        out += '\n';
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

bool
updateMode()
{
    const char *env = std::getenv("RRM_UPDATE_GOLDEN");
    return env && *env && std::string(env) != "0";
}

/**
 * The frozen configuration. The window spans one full selective-
 * refresh interval (40 ms at scale 50) past warmup so the RRM's
 * refresh, decay, and demotion paths all appear in the record.
 */
SystemConfig
goldenConfig(const std::string &scheme_name, const std::string &stem)
{
    SystemConfig cfg;
    cfg.workload = trace::workloadFromName("GemsFDTD");
    cfg.scheme = parseScheme(scheme_name);
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.060;
    cfg.warmupFraction = 0.2;
    cfg.seed = 7;
    cfg.obs.runRecordFile = stem + ".json";
    cfg.obs.sampleCsvFile = stem + ".csv";
    return cfg;
}

class PolicyGolden : public ::testing::Test
{
  protected:
    // Pin the run-record timestamp (belt and braces: the timestamp
    // line is also stripped by normalize()).
    const test::ScopedEnv epoch_{"SOURCE_DATE_EPOCH", "0"};

    void
    checkScheme(const std::string &scheme_name)
    {
        const std::string stem = "policy_golden." + scheme_name;
        {
            System system(goldenConfig(scheme_name, stem));
            system.run();
        }
        for (const char *ext : {".json", ".csv"}) {
            const std::string produced =
                normalize(readFile(stem + ext));
            const std::string golden_path = std::string(RRM_GOLDEN_DIR) +
                                            "/policy." + scheme_name +
                                            ext;
            if (updateMode()) {
                std::ofstream os(golden_path, std::ios::binary);
                ASSERT_TRUE(os.good())
                    << "cannot write " << golden_path;
                os << produced;
                continue;
            }
            const std::string golden = readFile(golden_path);
            EXPECT_EQ(produced, golden)
                << scheme_name << ext
                << ": output differs from the pre-refactor golden "
                   "record (policy refactor changed behaviour?)";
        }
    }
};

TEST_F(PolicyGolden, Static7SetsRunRecordIsByteIdentical)
{
    checkScheme("Static-7-SETs");
}

TEST_F(PolicyGolden, Static3SetsRunRecordIsByteIdentical)
{
    checkScheme("Static-3-SETs");
}

TEST_F(PolicyGolden, RrmRunRecordIsByteIdentical)
{
    checkScheme("RRM");
}

/** Guard against accidentally committing with update mode active. */
TEST_F(PolicyGolden, UpdateModeIsOff)
{
    EXPECT_FALSE(updateMode())
        << "RRM_UPDATE_GOLDEN is set; goldens were rewritten, not "
           "checked";
}

} // namespace
} // namespace rrm::sys
