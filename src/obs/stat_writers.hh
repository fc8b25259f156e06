/**
 * @file
 * Machine-readable StatVisitor backend.
 *
 * The JSON writer walks a statistics tree via StatGroup::visit and
 * emits deterministic output (see obs/json.hh for the
 * number-formatting contract), so two identical seeded runs export
 * byte-identical files.
 *
 * JSON schema (one nested object per StatGroup):
 *   Scalar / Formula   -> number
 *   VectorStat         -> {"bins": {name: number, ...}, "total": n}
 *   DistributionStat   -> {"samples": n, "mean": x,
 *                          "buckets": {label: count, ...}}
 *   HistogramStat      -> {"samples": n, "mean": x, "min": n, "max": n,
 *                          "buckets": {label: count, ...}} where only
 *                         non-empty log2 buckets are emitted
 */

#ifndef RRM_OBS_STAT_WRITERS_HH
#define RRM_OBS_STAT_WRITERS_HH

#include <ostream>
#include <string>

#include "obs/json.hh"
#include "stats/stats.hh"

namespace rrm::obs
{

/**
 * Render a stats tree as nested JSON. Use via writeStatsJson(), or
 * drive it from an enclosing JsonWriter to embed the tree inside a
 * larger document (the run record does this): position the writer
 * where an object value is expected, then call StatGroup::visit.
 */
class JsonStatWriter : public stats::StatVisitor
{
  public:
    explicit JsonStatWriter(JsonWriter &json) : json_(json) {}

    void visitScalar(const std::string &path,
                     const stats::Scalar &stat) override;
    void visitVector(const std::string &path,
                     const stats::VectorStat &stat) override;
    void visitFormula(const std::string &path,
                      const stats::Formula &stat) override;
    void visitDistribution(const std::string &path,
                           const stats::DistributionStat &stat) override;
    void visitHistogram(const std::string &path,
                        const stats::HistogramStat &stat) override;
    void enterGroup(const std::string &path) override;
    void leaveGroup(const std::string &path) override;

  private:
    /** Trailing path segment ("a.b.c" -> "c"). */
    static std::string leaf(const std::string &path);

    JsonWriter &json_;
    bool root_ = true;
};

/** Export a whole stats tree as a standalone JSON document. */
void writeStatsJson(std::ostream &os, const stats::StatGroup &root,
                    bool pretty = true);

} // namespace rrm::obs

#endif // RRM_OBS_STAT_WRITERS_HH
