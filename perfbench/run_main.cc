/**
 * @file
 * End-to-end runner of the repository benchmark.
 *
 * For one workload and seed it runs a closed batch of (Static-7-SETs,
 * RRM) pairs through the public sys::System API, one run at a time,
 * until --seconds of host time have passed. Each run builds its own
 * SystemConfig, times System construction (config finalize included)
 * and System::run() separately, and digests the run's SimResults and
 * stat tree. Every repeat of the pair must reproduce the first pair's
 * digests, and the pair at --check-seed must match the --expect
 * digests recorded with the benchmark (an extra pair is run when the
 * batch seed differs). The last stdout line is the JSON result.
 *
 *   perfbench_run --workload chase-mcf --seed 3 --seconds 10 \
 *       [--check-seed 1 --expect Static-7-SETs=<hex>,RRM=<hex>]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>

#include "common.hh"

using namespace rrm;
using namespace perfbench;

namespace
{

/** Construction-only pairs timed before the batch. */
constexpr unsigned setupRepeats = 100;

/** Outcome of one System run. */
struct RunOutcome
{
    bool ok = false;
    std::string error;
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    sys::SimResults results;
    std::string digest;
};

/** Consistency checks between a run's results and its stat tree. */
std::string
sanityError(const sys::SimResults &r, const stats::StatGroup &root)
{
    const auto flat = flattenStats(root);
    if (r.totalInstructions == 0)
        return "no instructions retired";
    if (!(r.aggregateIpc > 0.0) || !std::isfinite(r.aggregateIpc))
        return "non-positive IPC";
    if (!(r.lifetimeYears > 0.0) || !std::isfinite(r.lifetimeYears))
        return "non-positive lifetime";
    if (static_cast<double>(r.llcMisses) != sumStats(flat, "", "llc.misses"))
        return "SimResults.llcMisses disagrees with the stat tree";
    const double mem_reads = sumStats(flat, "channel", ".reads");
    if (std::fabs(mem_reads - static_cast<double>(r.memReads)) >
        0.01 * mem_reads + 64.0)
        return "SimResults.memReads disagrees with channel reads";
    return "";
}

RunOutcome
runOne(const WorkloadSpec &spec, const sys::Scheme &scheme,
       std::uint64_t seed)
{
    RunOutcome out;
    try {
        const double t0 = hostSeconds();
        sys::SystemConfig cfg = makeConfig(spec, scheme, seed);
        auto system = std::make_unique<sys::System>(std::move(cfg));
        const double t1 = hostSeconds();
        out.results = system->run();
        const double t2 = hostSeconds();
        out.setupSeconds = t1 - t0;
        out.runSeconds = t2 - t1;
        out.digest = outputDigest(out.results, system->statRoot());
        out.error = sanityError(out.results, system->statRoot());
        out.ok = out.error.empty();
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

/** "name=hex,name=hex" -> map. */
std::map<std::string, std::string>
parseExpect(const std::string &s)
{
    std::map<std::string, std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = s.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            throw std::runtime_error("bad --expect item '" + item + "'");
        out[item.substr(0, eq)] = item.substr(eq + 1);
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    const WorkloadSpec *spec = nullptr;
    try {
        args = Args::parse(argc, argv, {"--check-seed", "--expect"});
        spec = &workloadByName(args.workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_run: %s\n", e.what());
        return 2;
    }
    const auto schemes = schemePair();
    std::map<std::string, std::string> expect;
    std::uint64_t check_seed = 0;
    if (args.extra.count("--expect")) {
        expect = parseExpect(args.extra["--expect"]);
        check_seed = std::stoull(args.extra.at("--check-seed"));
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto record_failure = [&](const std::string &what) {
        ++failed;
        std::printf("# FAIL %s\n", what.c_str());
    };
    auto check_digest = [&](const RunOutcome &r, std::uint64_t seed) {
        if (seed != check_seed || expect.empty())
            return true;
        const auto it = expect.find(r.results.scheme);
        if (it != expect.end() && it->second == r.digest)
            return true;
        record_failure(r.results.scheme + " seed " +
                       std::to_string(seed) + " digest " + r.digest +
                       " differs from the recorded " +
                       (it == expect.end() ? "(none)" : it->second));
        return false;
    };

    std::printf("# workload %s seed %llu window %.3f ms (scaled), "
                "closed batch of Static-7-SETs + RRM pairs\n",
                spec->name.c_str(),
                static_cast<unsigned long long>(args.seed),
                spec->windowSeconds * 1e3);

    // ---- Set-up alone: construction is ~1 ms, so sample it often ----
    std::vector<double> setup; // per pair, host s
    try {
        for (unsigned rep = 0; rep < setupRepeats; ++rep) {
            double pair_s = 0.0;
            for (const auto &scheme : schemes) {
                const double t0 = hostSeconds();
                sys::System system(makeConfig(*spec, scheme, args.seed));
                pair_s += hostSeconds() - t0;
            }
            setup.push_back(pair_s);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_run: set-up failed: %s\n",
                     e.what());
        return 1;
    }

    // ---- Measured closed batch at the requested seed ----
    // The probe's 8 MiB exist only after the first pair, whose peak
    // resident set is the simulator's alone.
    std::optional<HostProbe> probe;
    double probe_best = 1e9;           // fastest probe round, host s
    double peak_rss = 0.0;
    std::vector<double> run_times[2]; // per scheme, host s of run()
    std::vector<std::string> first_digests;
    sys::SimResults first[2];
    const double batch_start = hostSeconds();
    for (unsigned pair = 0;; ++pair) {
        double setup_s = 0.0;
        bool pair_ok = true;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            if (probe)
                probe_best = std::min(probe_best, probe->roundSeconds());
            ++attempted;
            const RunOutcome r = runOne(*spec, schemes[s], args.seed);
            if (!r.ok) {
                record_failure(schemes[s].name() + ": " + r.error);
                pair_ok = false;
                continue;
            }
            std::printf("# run %-14s pair %u instr %llu run_s %.4f "
                        "setup_s %.5f ipc %.6f lifetime_y %.6g "
                        "events %llu digest %s\n",
                        r.results.scheme.c_str(), pair,
                        static_cast<unsigned long long>(
                            r.results.totalInstructions),
                        r.runSeconds, r.setupSeconds,
                        r.results.aggregateIpc, r.results.lifetimeYears,
                        static_cast<unsigned long long>(
                            r.results.eventsExecuted),
                        r.digest.c_str());
            if (pair == 0) {
                first_digests.push_back(r.digest);
                first[s] = r.results;
                pair_ok &= check_digest(r, args.seed);
            } else if (s >= first_digests.size() ||
                       r.digest != first_digests[s]) {
                record_failure(r.results.scheme + " repeat " +
                               std::to_string(pair) +
                               " is not deterministic");
                pair_ok = false;
            }
            run_times[s].push_back(r.runSeconds);
            setup_s += r.setupSeconds;
        }
        if (pair_ok)
            setup.push_back(setup_s);
        if (pair == 0 && first_digests.size() != schemes.size())
            break; // the first pair failed: nothing to repeat against
        if (pair == 0) {
            peak_rss = peakRssMiB();
            probe.emplace();
        }
        if (hostSeconds() - batch_start >= args.seconds && pair >= 1)
            break;
    }

    // ---- Output check against the recorded reference ----
    if (!expect.empty() && check_seed != args.seed) {
        for (const auto &scheme : schemes) {
            ++attempted;
            const RunOutcome r = runOne(*spec, scheme, check_seed);
            if (!r.ok)
                record_failure(scheme.name() + " check run: " + r.error);
            else
                check_digest(r, check_seed);
            std::printf("# check %-12s seed %llu digest %s\n",
                        scheme.name().c_str(),
                        static_cast<unsigned long long>(check_seed),
                        r.digest.c_str());
        }
    }

    if (first_digests.size() != schemes.size()) {
        std::printf("# no successful pair; failed %llu of %llu\n",
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
        return 1;
    }

    const double pair_instr =
        static_cast<double>(first[0].totalInstructions +
                            first[1].totalInstructions);
    const double tp_median =
        pair_instr / (median(run_times[0]) + median(run_times[1])) / 1e6;
    const double tp_best = pair_instr /
                           (*std::min_element(run_times[0].begin(),
                                              run_times[0].end()) +
                            *std::min_element(run_times[1].begin(),
                                              run_times[1].end())) /
                           1e6;
    // The host's speed drifts by up to 1.6x over minutes on a shared
    // VM; the probe, timed beside every run, measures that drift and
    // scales the fastest-run throughput to the reference host speed.
    const double host_speed = HostProbe::referenceSeconds / probe_best;
    const double tp_scaled = tp_best / host_speed;
    std::printf("# throughput at median run time %.4f, at best run time "
                "%.4f Minstr/s; host probe best round %.5f s = %.4f of "
                "reference speed; scaled throughput %.4f Minstr/s\n",
                tp_median, tp_best, probe_best, host_speed, tp_scaled);
    const double ipc_gain = first[1].aggregateIpc / first[0].aggregateIpc;
    const double life_ratio =
        first[1].lifetimeYears / first[0].lifetimeYears;
    const double failed_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);
    std::printf("# pairs %zu; rrm_ipc_gain %.6f (paper geomean 1.62); "
                "rrm_lifetime_ratio %.6f (paper 0.60); failed_frac %.4f "
                "of %llu runs attempted\n",
                run_times[0].size(), ipc_gain, life_ratio, failed_frac,
                static_cast<unsigned long long>(attempted));

    const bool correct = failed == 0 && std::isfinite(ipc_gain) &&
                         std::isfinite(life_ratio);
    printResult(correct, attempted, failed,
                {{"sim_minstr_per_s", tp_scaled, "Minstr/s"},
                 {"setup_s", median(setup), "s"},
                 {"peak_rss_mb", peak_rss, "MiB"},
                 {"rrm_ipc_gain", ipc_gain, "ratio"},
                 {"rrm_lifetime_ratio", life_ratio, "ratio"},
                 {"pass_frac", 1.0 - failed_frac, "frac"}});
    return 0;
}
