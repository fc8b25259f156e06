/**
 * @file
 * Shared pieces of the repository benchmark: the workload table, the
 * SystemConfig each run builds, output digests, stat-tree flattening,
 * and the one-line JSON result both programs print.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "system/system.hh"

namespace perfbench
{

/** One benchmark workload: a Table VII mix at a fixed window. */
struct WorkloadSpec
{
    std::string name;
    rrm::trace::Workload workload;
    double windowSeconds; ///< simulated (scaled) seconds per run
};

/** The three workloads, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadSpec> &workloads();

/** Look a workload up by name; throws std::runtime_error if unknown. */
const WorkloadSpec &workloadByName(const std::string &name);

/** The scheme pair every workload runs: Static-7-SETs, then RRM. */
std::vector<rrm::sys::Scheme> schemePair();

/** The full config of one run (caches start empty; 20% warmup). */
rrm::sys::SystemConfig makeConfig(const WorkloadSpec &w,
                                  const rrm::sys::Scheme &scheme,
                                  std::uint64_t seed);

/** Host monotonic clock in seconds. */
double hostSeconds();

/**
 * Host-speed probe: a miniature set-associative cache model (16-way
 * LRU over 4 MiB of tags and 4 MiB of stamps, driven by a skewed
 * address stream), so its host load resembles the simulator's: branchy
 * lookups in arrays that live in L2/L3. Timed between simulation runs
 * it tracks how fast the host is at that moment. It is benchmark code,
 * so no change to src/ can move it.
 */
class HostProbe
{
  public:
    /**
     * Round time (s) of this probe on the quiet host the benchmark was
     * tuned on (README.md, "Hardware"). Only the unit of the scaled
     * throughput depends on it.
     */
    static constexpr double referenceSeconds = 0.0165;

    HostProbe();

    /** Host seconds of one fixed round of lookups. */
    double roundSeconds();

  private:
    static constexpr unsigned ways = 16;
    static constexpr unsigned sets = 1u << 15;

    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
    std::uint64_t lcg_ = 12345;

    void lookups(unsigned n);
};

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

/**
 * FNV-1a digest of a run's simulated outputs: the SimResults JSON
 * followed by the text dump of the whole stat tree.
 */
std::string outputDigest(const rrm::sys::SimResults &r,
                         const rrm::stats::StatGroup &root);

/**
 * Every scalar of a stat tree by dotted path (root name excluded),
 * plus "<path>::samples" and "<path>::sum" for each distribution.
 */
std::map<std::string, double> flattenStats(
    const rrm::stats::StatGroup &root);

/**
 * Sum of every entry whose path matches `prefix` followed by any
 * digits and then `suffix` (e.g. "l1d", ".hits" sums l1d0.hits,
 * l1d1.hits, ...). An empty prefix matches the exact `suffix` path.
 */
double sumStats(const std::map<std::string, double> &stats,
                const std::string &prefix, const std::string &suffix);

/** Median of a non-empty sample. */
double median(std::vector<double> v);

/** Command line: --workload, --seed, --seconds (+ free flags). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::map<std::string, std::string> extra;

    static Args parse(int argc, char **argv,
                      const std::vector<std::string> &extra_flags);
};

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Print the result line: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}} on one line of stdout.
 */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
