/**
 * @file
 * trace-pack: generate, inspect, and verify binary trace packs.
 *
 *   trace-pack pack   --out DIR --workload NAME [--workload NAME...]
 *                     [--seed N] [--records N]
 *   trace-pack info   FILE...
 *   trace-pack verify FILE...
 *
 * `pack` replicates the System's per-core seeding exactly — a master
 * Random seeded with --seed hands one seed to each of the four cores
 * in order — and writes one pack per core named
 * "<profile>-c<core>.rtp", the layout System expects from
 * SystemConfig::tracePackDir.
 *
 * `verify` re-runs the generator with the pack's recorded (profile,
 * seed) and byte-compares every record, proving a pack still matches
 * the current generator code.
 *
 * A usage error (bad option, unknown workload, unreadable pack) prints
 * one "trace-pack: ..." line to stderr and exits with status 2.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/random.hh"
#include "trace/generator.hh"
#include "trace/trace_pack.hh"
#include "trace/workload.hh"

namespace
{

using namespace rrm;

constexpr std::uint64_t defaultRecords = 16u << 20;

int
usage()
{
    std::fprintf(stderr,
                 "usage: trace-pack pack --out DIR --workload NAME"
                 " [--workload NAME...] [--seed N] [--records N]\n"
                 "       trace-pack info FILE...\n"
                 "       trace-pack verify FILE...\n");
    return 2;
}

/**
 * The value `text` of integer option `option`; fatal() unless it is
 * wholly a non-negative integer ("--seed 12abc" must not pack seed 12).
 */
std::uint64_t
integerOption(const std::string &option, const std::string &text)
{
    if (const auto v = parseNumber<std::uint64_t>(text))
        return *v;
    fatal("option ", option, " needs a non-negative integer, got '", text,
          "'");
}

int
cmdPack(const std::vector<std::string> &args)
{
    std::string outDir;
    std::vector<std::string> workloads;
    std::uint64_t seed = 1;
    std::uint64_t records = defaultRecords;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                fatal("option ", a, " needs a value");
            return args[++i];
        };
        if (a == "--out")
            outDir = value();
        else if (a == "--workload")
            workloads.push_back(value());
        else if (a == "--seed")
            seed = integerOption(a, value());
        else if (a == "--records")
            records = integerOption(a, value());
        else
            fatal("unknown option '", a, "'");
    }
    if (outDir.empty() || workloads.empty())
        return usage();

    for (const auto &name : workloads) {
        const trace::Workload w = trace::workloadFromName(name);
        // Same chain as System::buildCores: one master Random, one
        // next() per core, in core order.
        Random seeder(seed);
        for (std::size_t c = 0; c < w.numCores(); ++c) {
            const auto &profile = trace::benchmarkProfile(w.perCore[c]);
            const std::uint64_t coreSeed = seeder.next();
            trace::TraceGenerator gen(profile, coreSeed);
            const std::string path = outDir + "/" +
                                     std::string(profile.name) + "-c" +
                                     std::to_string(c) + ".rtp";
            trace::writeTracePack(path, std::string(profile.name),
                                  coreSeed, gen, records);
            std::printf("wrote %s: %llu records, seed %llu\n",
                        path.c_str(),
                        static_cast<unsigned long long>(records),
                        static_cast<unsigned long long>(coreSeed));
        }
    }
    return 0;
}

int
cmdInfo(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    for (const auto &path : args) {
        trace::TracePackReader reader(path);
        const auto &h = reader.header();
        std::printf("%s:\n"
                    "  version    %u\n"
                    "  profile    %s\n"
                    "  seed       %llu\n"
                    "  records    %llu\n"
                    "  footprint  %llu bytes\n"
                    "  meanGap    %.6f instructions\n",
                    path.c_str(), h.version, h.profileName.c_str(),
                    static_cast<unsigned long long>(h.seed),
                    static_cast<unsigned long long>(h.recordCount),
                    static_cast<unsigned long long>(h.footprintBytes),
                    h.meanGapInstructions);
    }
    return 0;
}

int
cmdVerify(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    bool ok = true;
    for (const auto &path : args) {
        trace::TracePackReader reader(path);
        const auto &h = reader.header();
        const auto &profile = trace::benchmarkProfile(
            trace::benchmarkFromName(h.profileName));
        trace::TraceGenerator gen(profile, h.seed);
        if (gen.footprintBytes() != h.footprintBytes ||
            gen.meanGapInstructions() != h.meanGapInstructions) {
            std::printf("%s: STALE (profile parameters changed)\n",
                        path.c_str());
            ok = false;
            continue;
        }
        std::uint64_t bad = h.recordCount;
        for (std::uint64_t i = 0; i < h.recordCount; ++i) {
            const trace::TraceRecord want = gen.next();
            const trace::TraceRecord got = reader.record(i);
            if (got.addr != want.addr || got.type != want.type ||
                got.gapInstructions != want.gapInstructions) {
                bad = i;
                break;
            }
        }
        if (bad != h.recordCount) {
            std::printf("%s: MISMATCH at record %llu\n", path.c_str(),
                        static_cast<unsigned long long>(bad));
            ok = false;
        } else {
            std::printf("%s: ok (%llu records)\n", path.c_str(),
                        static_cast<unsigned long long>(h.recordCount));
        }
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "pack")
            return cmdPack(args);
        if (cmd == "info")
            return cmdInfo(args);
        if (cmd == "verify")
            return cmdVerify(args);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "trace-pack: %s\n", e.what());
        return 2;
    }
    return usage();
}
