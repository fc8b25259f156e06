/**
 * @file
 * Multi-core workload definitions (paper Table VII) and the N-core
 * mix-spec grammar.
 *
 * A workload assigns one benchmark copy per core (with distinct
 * seeds and address slices) and, optionally, groups cores into
 * tenants for the multi-tenant fairness machinery. The paper's
 * evaluation shapes are canned specs: single-benchmark workloads run
 * four identical copies; MIX_1 and MIX_2 combine four different
 * benchmarks. Arbitrary N-core mixes come from the spec grammar
 *
 *     mix    := entry ("," entry)*
 *     entry  := <benchmark>[":"<count>]      e.g. "zeusmp,lbm,lbm,milc:2"
 *     tenants:= <id> ("," <id>)*             one id per core, "0,0,1,1"
 *
 * parsed by parseWorkloadSpec() with every violation aggregated into
 * one error list (mirroring SystemConfig::validate()).
 */

#ifndef RRM_TRACE_WORKLOAD_HH
#define RRM_TRACE_WORKLOAD_HH

#include <string>
#include <vector>

#include "trace/benchmark.hh"

namespace rrm::trace
{

/** Core count of the canned paper workloads (Table VII). */
constexpr std::size_t workloadCores = 4;

/**
 * Most cores a mix spec may declare: 8x the largest mix anything here
 * runs (bwaves:8). parseWorkloadSpec() checks it before an entry
 * expands, so "lbm:4000000000" is one error, not an allocation.
 */
constexpr std::size_t maxWorkloadCores = 64;

/** A named N-core benchmark assignment with tenant grouping. */
struct Workload
{
    std::string name;
    std::vector<Benchmark> perCore;

    /**
     * Tenant id of each core. Empty (the default, and the shape of
     * every canned workload) means one tenant owning every core, and
     * keeps all multi-tenant machinery — per-tenant stats, results
     * sections, config JSON fields — switched off so single-tenant
     * runs stay byte-identical to the pre-tenant simulator.
     */
    std::vector<unsigned> tenantOf;

    /** Cores this workload instantiates. */
    std::size_t numCores() const { return perCore.size(); }

    /** Tenant of core `c` (0 when tenantOf is defaulted). */
    unsigned
    tenantOfCore(std::size_t c) const
    {
        return c < tenantOf.size() ? tenantOf[c] : 0u;
    }

    /** Distinct tenants (1 when tenantOf is defaulted). */
    unsigned numTenants() const;

    /** True when the workload declares more than one tenant. */
    bool multiTenant() const { return numTenants() > 1; }
};

/** The single-benchmark workload for `b` (4 identical copies). */
Workload singleWorkload(Benchmark b);

/** MIX_1 = mcf + bwaves + zeusmp + milc. */
Workload mix1Workload();

/** MIX_2 = GemsFDTD + libquantum + lbm + leslie3d. */
Workload mix2Workload();

/**
 * The paper's full evaluation set: the 9 single-benchmark workloads
 * followed by MIX_1 and MIX_2.
 */
std::vector<Workload> standardWorkloads();

/** Look a standard workload up by name; fatal() if unknown. */
Workload workloadFromName(const std::string &name);

/**
 * Parse a mix spec (grammar above; benchmark names match
 * case-insensitively) plus an optional tenant grouping into `out`.
 * Returns one message per violation (empty = valid); `out` is only
 * meaningful when the return is empty. The workload is named by its
 * canonical spec (mixSpecOf), so run ids stay readable.
 */
std::vector<std::string> parseWorkloadSpec(const std::string &mix,
                                           const std::string &tenants,
                                           Workload &out);

/**
 * parseWorkloadSpec() with all violations aggregated into one
 * fatal() — the CLI entry point for `--mix` / `--tenants`.
 */
Workload workloadFromSpec(const std::string &mix,
                          const std::string &tenants = "");

/**
 * Canonical mix spec of a workload: consecutive identical benchmarks
 * collapse into one `name:count` entry ("lbm:6,libquantum:2");
 * parseWorkloadSpec() round-trips it to the same perCore assignment.
 */
std::string mixSpecOf(const Workload &w);

/** Canonical tenant spec ("0,0,1,1"); "" for single-tenant. */
std::string tenantSpecOf(const Workload &w);

/**
 * Append one message per tenant-grouping violation: size mismatch
 * against perCore, an id not below the core count, or ids not forming
 * a contiguous 0..T-1 range. Used by parseWorkloadSpec() and
 * SystemConfig::validate().
 */
void collectTenantErrors(const Workload &w,
                         std::vector<std::string> &errors);

} // namespace rrm::trace

#endif // RRM_TRACE_WORKLOAD_HH
