/**
 * @file
 * Workload table and mix-spec grammar implementation.
 */

#include "workload.hh"

#include <algorithm>
#include <cctype>
#include <limits>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace rrm::trace
{

namespace
{

/** Case-insensitive ASCII string equality. */
bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

/** Case-insensitive benchmark lookup; false when unknown. */
bool
findBenchmark(const std::string &name, Benchmark &out)
{
    for (Benchmark b : allBenchmarks) {
        if (equalsIgnoreCase(benchmarkName(b), name)) {
            out = b;
            return true;
        }
    }
    return false;
}

/** Split `s` on commas, keeping empty fields (they are errors). */
std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::string field;
    std::stringstream ss(s);
    while (std::getline(ss, field, ','))
        out.push_back(field);
    if (!s.empty() && s.back() == ',')
        out.emplace_back();
    return out;
}

/** The rule a malformed count or tenant id breaks, for messages. */
std::string
unsignedRule()
{
    return " (want a decimal integer up to " +
           std::to_string(std::numeric_limits<unsigned>::max()) + ")";
}

} // namespace

unsigned
Workload::numTenants() const
{
    if (tenantOf.empty())
        return perCore.empty() ? 0u : 1u;
    unsigned max_id = 0;
    for (const unsigned t : tenantOf)
        max_id = std::max(max_id, t);
    return max_id + 1;
}

Workload
singleWorkload(Benchmark b)
{
    return Workload{std::string(benchmarkName(b)),
                    {b, b, b, b},
                    {}};
}

Workload
mix1Workload()
{
    return Workload{"MIX_1",
                    {Benchmark::Mcf, Benchmark::Bwaves, Benchmark::Zeusmp,
                     Benchmark::Milc},
                    {}};
}

Workload
mix2Workload()
{
    return Workload{"MIX_2",
                    {Benchmark::GemsFDTD, Benchmark::Libquantum,
                     Benchmark::Lbm, Benchmark::Leslie3d},
                    {}};
}

std::vector<Workload>
standardWorkloads()
{
    std::vector<Workload> all;
    for (Benchmark b : allBenchmarks)
        all.push_back(singleWorkload(b));
    all.push_back(mix1Workload());
    all.push_back(mix2Workload());
    return all;
}

Workload
workloadFromName(const std::string &name)
{
    for (auto &w : standardWorkloads())
        if (w.name == name)
            return w;
    fatal("unknown workload '", name, "'");
}

std::vector<std::string>
parseWorkloadSpec(const std::string &mix, const std::string &tenants,
                  Workload &out)
{
    std::vector<std::string> errors;
    out = Workload{};

    if (mix.empty()) {
        errors.push_back("mix spec is empty");
        return errors;
    }
    for (const std::string &entry : splitCommas(mix)) {
        if (entry.empty()) {
            errors.push_back("mix spec has an empty entry");
            continue;
        }
        std::string bench_name = entry;
        unsigned count = 1;
        const std::size_t colon = entry.find(':');
        if (colon != std::string::npos) {
            bench_name = entry.substr(0, colon);
            const std::string count_str = entry.substr(colon + 1);
            const std::optional<unsigned> parsed =
                parseNumber<unsigned>(count_str);
            if (!parsed) {
                errors.push_back("mix entry '" + entry +
                                 "' has a malformed count '" +
                                 count_str + "'" + unsignedRule());
                continue;
            }
            count = *parsed;
            if (count == 0) {
                errors.push_back("mix entry '" + entry +
                                 "' asks for zero cores");
                continue;
            }
        }
        Benchmark b{};
        if (!findBenchmark(bench_name, b)) {
            errors.push_back("mix entry '" + entry +
                             "' names unknown benchmark '" +
                             bench_name + "'");
            continue;
        }
        const std::uint64_t cores = out.perCore.size() + std::uint64_t{count};
        if (cores > maxWorkloadCores) {
            errors.push_back("mix entry '" + entry + "' brings the mix to " +
                             std::to_string(cores) + " cores, above the " +
                             std::to_string(maxWorkloadCores) +
                             "-core limit");
            continue;
        }
        for (unsigned i = 0; i < count; ++i)
            out.perCore.push_back(b);
    }
    if (errors.empty() && out.perCore.empty())
        errors.push_back("mix spec selects zero cores");

    if (!tenants.empty()) {
        for (const std::string &field : splitCommas(tenants)) {
            const std::optional<unsigned> id = parseNumber<unsigned>(field);
            if (!id) {
                errors.push_back("tenant spec has malformed id '" +
                                 field + "'" + unsignedRule());
                continue;
            }
            out.tenantOf.push_back(*id);
        }
    }

    if (errors.empty()) {
        collectTenantErrors(out, errors);
        out.name = mixSpecOf(out);
    }
    return errors;
}

Workload
workloadFromSpec(const std::string &mix, const std::string &tenants)
{
    Workload w;
    const std::vector<std::string> errors =
        parseWorkloadSpec(mix, tenants, w);
    if (!errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += (joined.empty() ? "" : "; ") + e;
        fatal("invalid workload spec '", mix, "' (", errors.size(),
              " problem(s)): ", joined);
    }
    return w;
}

std::string
mixSpecOf(const Workload &w)
{
    std::string spec;
    std::size_t i = 0;
    while (i < w.perCore.size()) {
        std::size_t run = 1;
        while (i + run < w.perCore.size() &&
               w.perCore[i + run] == w.perCore[i]) {
            ++run;
        }
        if (!spec.empty())
            spec += ',';
        spec += std::string(benchmarkName(w.perCore[i]));
        if (run > 1)
            spec += ':' + std::to_string(run);
        i += run;
    }
    return spec;
}

std::string
tenantSpecOf(const Workload &w)
{
    if (!w.multiTenant())
        return "";
    std::string spec;
    for (std::size_t c = 0; c < w.numCores(); ++c) {
        if (!spec.empty())
            spec += ',';
        spec += std::to_string(w.tenantOfCore(c));
    }
    return spec;
}

void
collectTenantErrors(const Workload &w, std::vector<std::string> &errors)
{
    if (w.tenantOf.empty())
        return;
    if (w.tenantOf.size() != w.perCore.size()) {
        errors.push_back(
            "tenant spec names " + std::to_string(w.tenantOf.size()) +
            " cores but the mix has " + std::to_string(w.perCore.size()));
        return;
    }
    // Contiguous ids from 0 are all below the core count; checking
    // that first also keeps numTenants() (max id + 1) from wrapping.
    for (const unsigned t : w.tenantOf) {
        if (t >= w.perCore.size()) {
            errors.push_back("tenant ids must be contiguous from 0: id " +
                             std::to_string(t) + " is not below the " +
                             std::to_string(w.perCore.size()) +
                             "-core count");
            return;
        }
    }
    const unsigned num = w.numTenants();
    std::vector<bool> used(num, false);
    for (const unsigned t : w.tenantOf)
        used[t] = true;
    for (unsigned t = 0; t < num; ++t) {
        if (!used[t]) {
            errors.push_back("tenant ids must be contiguous from 0: id " +
                             std::to_string(t) + " is unused but id " +
                             std::to_string(num - 1) + " appears");
            return;
        }
    }
}

} // namespace rrm::trace
