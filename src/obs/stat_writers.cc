/**
 * @file
 * JSON stat writer implementation.
 */

#include "stat_writers.hh"

namespace rrm::obs
{

std::string
JsonStatWriter::leaf(const std::string &path)
{
    const auto dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(dot + 1);
}

void
JsonStatWriter::enterGroup(const std::string &path)
{
    if (root_) {
        // The root group becomes the top-level object itself.
        root_ = false;
        json_.beginObject();
        return;
    }
    json_.key(leaf(path));
    json_.beginObject();
}

void
JsonStatWriter::leaveGroup(const std::string &path)
{
    (void)path;
    json_.endObject();
}

void
JsonStatWriter::visitScalar(const std::string &path,
                            const stats::Scalar &stat)
{
    json_.field(leaf(path), stat.value());
}

void
JsonStatWriter::visitFormula(const std::string &path,
                             const stats::Formula &stat)
{
    json_.field(leaf(path), stat.value());
}

void
JsonStatWriter::visitVector(const std::string &path,
                            const stats::VectorStat &stat)
{
    json_.key(leaf(path));
    json_.beginObject();
    json_.key("bins");
    json_.beginObject();
    for (std::size_t i = 0; i < stat.size(); ++i)
        json_.field(stat.binName(i), stat.value(i));
    json_.endObject();
    json_.field("total", stat.total());
    json_.endObject();
}

void
JsonStatWriter::visitDistribution(const std::string &path,
                                  const stats::DistributionStat &stat)
{
    json_.key(leaf(path));
    json_.beginObject();
    json_.field("samples", stat.samples().count());
    json_.field("mean", stat.samples().mean());
    json_.key("buckets");
    json_.beginObject();
    const BoundedHistogram &hist = stat.histogram();
    for (std::size_t i = 0; i < hist.numBuckets(); ++i)
        json_.field(hist.bucketLabel(i), hist.count(i));
    json_.endObject();
    json_.endObject();
}

void
JsonStatWriter::visitHistogram(const std::string &path,
                               const stats::HistogramStat &stat)
{
    json_.key(leaf(path));
    json_.beginObject();
    json_.field("samples", stat.samples());
    json_.field("mean", stat.mean());
    json_.field("min", stat.minSample());
    json_.field("max", stat.maxSample());
    json_.key("buckets");
    json_.beginObject();
    for (std::size_t i = 0; i < stats::HistogramStat::kNumBuckets; ++i) {
        if (stat.count(i) == 0)
            continue;
        json_.field(stats::HistogramStat::bucketLabel(i), stat.count(i));
    }
    json_.endObject();
    json_.endObject();
}

void
writeStatsJson(std::ostream &os, const stats::StatGroup &root,
               bool pretty)
{
    JsonWriter json(os, pretty);
    JsonStatWriter writer(json);
    root.visit(writer);
    os << '\n';
}

} // namespace rrm::obs
