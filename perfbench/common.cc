/**
 * @file
 * Shared pieces of the repository benchmark (see common.hh).
 */

#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

using namespace rrm;

const std::vector<WorkloadSpec> &
workloads()
{
    // Windows are sized so one Static-7 + RRM pair takes a few host
    // seconds on a 2-4 GHz core: a run measures several pairs.
    static const std::vector<WorkloadSpec> table = {
        {"resident-hmmer", trace::singleWorkload(trace::Benchmark::Hmmer),
         0.004},
        {"chase-mcf", trace::singleWorkload(trace::Benchmark::Mcf), 0.008},
        {"writemix-mix2", trace::mix2Workload(), 0.012},
    };
    return table;
}

const WorkloadSpec &
workloadByName(const std::string &name)
{
    for (const auto &w : workloads())
        if (w.name == name)
            return w;
    throw std::runtime_error("unknown workload '" + name + "'");
}

std::vector<sys::Scheme>
schemePair()
{
    return {sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
            sys::Scheme::rrmScheme()};
}

sys::SystemConfig
makeConfig(const WorkloadSpec &w, const sys::Scheme &scheme,
           std::uint64_t seed)
{
    sys::SystemConfig cfg;
    cfg.workload = w.workload;
    cfg.hierarchy.numCores =
        static_cast<unsigned>(w.workload.numCores());
    cfg.scheme = scheme;
    cfg.windowSeconds = w.windowSeconds;
    cfg.seed = seed;
    // A hung run becomes a counted failure instead of a hung bench.
    cfg.wallTimeoutSeconds = 120.0;
    return cfg;
}

double
hostSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

HostProbe::HostProbe()
    : tags_(std::size_t{sets} * ways, ~std::uint64_t(0)),
      stamps_(std::size_t{sets} * ways, 0)
{
    lookups(2000000); // fill the model and the host caches once
}

void
HostProbe::lookups(unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t r = lcg_ >> 20;
        // 7 in 8 lookups reuse a 512K-line hot set; the rest stream.
        const std::uint64_t line =
            (r & 7) ? r % (1u << 19) : r % (1u << 24);
        std::uint64_t *tag = &tags_[(line % sets) * ways];
        std::uint64_t *stamp = &stamps_[(line % sets) * ways];
        ++clock_;
        unsigned victim = 0;
        bool hit = false;
        for (unsigned w = 0; w < ways; ++w) {
            if (tag[w] == line) {
                stamp[w] = clock_;
                hit = true;
                break;
            }
            if (stamp[w] < stamp[victim])
                victim = w;
        }
        if (!hit) {
            tag[victim] = line;
            stamp[victim] = clock_;
        }
    }
}

double
HostProbe::roundSeconds()
{
    const double t0 = hostSeconds();
    lookups(300000);
    return hostSeconds() - t0;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Collects a stat tree into path -> value. */
class Flattener : public stats::StatVisitor
{
  public:
    explicit Flattener(std::map<std::string, double> &out) : out_(out) {}

    void
    visitScalar(const std::string &path, const stats::Scalar &s) override
    {
        out_[path] = s.value();
    }
    void
    visitVector(const std::string &path,
                const stats::VectorStat &s) override
    {
        out_[path] = s.total();
    }
    void
    visitFormula(const std::string &path,
                 const stats::Formula &s) override
    {
        out_[path] = s.value();
    }
    void
    visitDistribution(const std::string &path,
                      const stats::DistributionStat &s) override
    {
        out_[path + "::samples"] =
            static_cast<double>(s.samples().count());
        out_[path + "::sum"] = s.samples().sum();
    }
    void
    visitHistogram(const std::string &path,
                   const stats::HistogramStat &s) override
    {
        out_[path + "::samples"] = static_cast<double>(s.samples());
        out_[path + "::sum"] = s.sum();
    }

  private:
    std::map<std::string, double> &out_;
};

} // namespace

std::string
outputDigest(const sys::SimResults &r, const stats::StatGroup &root)
{
    std::ostringstream tree;
    root.dump(tree);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(tree.str(), fnv1a(r.toJsonString()))));
    return buf;
}

std::map<std::string, double>
flattenStats(const stats::StatGroup &root)
{
    std::map<std::string, double> with_root;
    Flattener f(with_root);
    root.visit(f);
    std::map<std::string, double> out;
    const std::size_t skip = root.name().size() + 1;
    for (auto &[path, value] : with_root)
        out[path.size() > skip ? path.substr(skip) : path] = value;
    return out;
}

double
sumStats(const std::map<std::string, double> &stats,
         const std::string &prefix, const std::string &suffix)
{
    if (prefix.empty()) {
        const auto it = stats.find(suffix);
        return it == stats.end() ? 0.0 : it->second;
    }
    double total = 0.0;
    for (const auto &[path, value] : stats) {
        if (path.size() <= prefix.size() + suffix.size() ||
            path.compare(0, prefix.size(), prefix) != 0 ||
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        const std::string mid = path.substr(
            prefix.size(), path.size() - prefix.size() - suffix.size());
        if (!mid.empty() &&
            std::all_of(mid.begin(), mid.end(),
                        [](char c) { return c >= '0' && c <= '9'; }))
            total += value;
    }
    return total;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::runtime_error("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Args
Args::parse(int argc, char **argv,
            const std::vector<std::string> &extra_flags)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("flag " + flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (std::find(extra_flags.begin(), extra_flags.end(),
                             flag) != extra_flags.end()) {
            a.extra[flag] = value;
        } else {
            throw std::runtime_error("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        throw std::runtime_error("--workload is required");
    if (!(a.seconds > 0.0))
        throw std::runtime_error("--seconds must be positive");
    return a;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // JSON has no NaN/inf; a non-finite value is reported as 0 and
        // the run is already marked incorrect by the caller.
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
