/**
 * @file
 * RunPlan implementation: construction helpers and plan validation.
 */

#include "run_plan.hh"

#include <map>
#include <set>

#include "common/logging.hh"

namespace rrm::run
{

RunSpec &
RunPlan::add(sys::SystemConfig config, std::string id)
{
    RunSpec spec;
    if (id.empty())
        id = config.workload.name + "." + config.scheme.name();
    spec.id = std::move(id);
    spec.config = std::move(config);
    runs_.push_back(std::move(spec));
    return runs_.back();
}

RunPlan
RunPlan::matrix(const std::vector<trace::Workload> &workloads,
                const std::vector<sys::Scheme> &schemes,
                const std::function<sys::SystemConfig(
                    const trace::Workload &, const sys::Scheme &)>
                    &configFor)
{
    RunPlan plan;
    for (const auto &w : workloads)
        for (const auto &s : schemes)
            plan.add(configFor(w, s));
    return plan;
}

void
RunPlan::validate() const
{
    std::vector<std::string> errors;
    if (runs_.empty())
        errors.push_back("plan has no runs");

    std::set<std::string> ids;
    // Output path -> id of the run that claimed it first.
    std::map<std::string, std::string> outputs;
    for (const RunSpec &spec : runs_) {
        if (spec.id.empty())
            errors.push_back("a run has an empty id");
        else if (!ids.insert(spec.id).second)
            errors.push_back("duplicate run id '" + spec.id + "'");

        for (const std::string &err : spec.config.validate())
            errors.push_back(spec.id + ": " + err);

        const obs::ObsOptions &o = spec.config.obs;
        for (const std::string &path :
             {o.runRecordFile, o.sampleCsvFile, o.traceFile,
              o.perfettoFile, o.telemetryJsonFile}) {
            if (path.empty())
                continue;
            const auto [it, inserted] = outputs.emplace(path, spec.id);
            if (!inserted) {
                errors.push_back(spec.id + ": output file '" + path +
                                 "' clashes with run '" + it->second +
                                 "'");
            }
        }
    }

    if (errors.empty())
        return;
    std::string joined;
    for (const auto &e : errors)
        joined += (joined.empty() ? "" : "; ") + e;
    fatal("invalid run plan (", errors.size(), " problem(s)): ",
          joined);
}

} // namespace rrm::run
