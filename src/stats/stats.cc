/**
 * @file
 * Statistics package implementation.
 */

#include "stats.hh"

#include <bit>
#include <iomanip>
#include <numeric>

#include "ckpt/ckpt.hh"

namespace rrm::stats
{

namespace
{

/** Join a prefix and a stat name with a dot (no leading dot). */
std::string
joinPath(const std::string &prefix, const std::string &name)
{
    return prefix.empty() ? name : prefix + "." + name;
}

void
dumpLine(std::ostream &os, const std::string &path, double value,
         const std::string &desc)
{
    os << std::left << std::setw(52) << path << std::right
       << std::setw(18) << std::setprecision(8) << value << "  # " << desc
       << '\n';
}

} // namespace

double
VectorStat::total() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void
VectorStat::reset()
{
    std::fill(values_.begin(), values_.end(), 0.0);
}

void
TextStatWriter::visitScalar(const std::string &path, const Scalar &stat)
{
    dumpLine(os_, path, stat.value(), stat.desc());
}

void
TextStatWriter::visitVector(const std::string &path,
                            const VectorStat &stat)
{
    for (std::size_t i = 0; i < stat.size(); ++i) {
        dumpLine(os_, path + "::" + stat.binName(i), stat.value(i),
                 stat.desc());
    }
    dumpLine(os_, path + "::total", stat.total(), stat.desc());
}

void
TextStatWriter::visitFormula(const std::string &path,
                             const Formula &stat)
{
    dumpLine(os_, path, stat.value(), stat.desc());
}

void
TextStatWriter::visitDistribution(const std::string &path,
                                  const DistributionStat &stat)
{
    dumpLine(os_, path + "::samples",
             static_cast<double>(stat.samples().count()), stat.desc());
    dumpLine(os_, path + "::mean", stat.samples().mean(), stat.desc());
    const BoundedHistogram &hist = stat.histogram();
    for (std::size_t i = 0; i < hist.numBuckets(); ++i) {
        dumpLine(os_, path + "::" + hist.bucketLabel(i),
                 static_cast<double>(hist.count(i)), stat.desc());
    }
}

void
HistogramStat::add(std::uint64_t v, std::uint64_t weight)
{
    counts_[bucketOf(v)] += weight;
    samples_ += weight;
    sum_ += static_cast<double>(v) * static_cast<double>(weight);
    if (v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
}

std::size_t
HistogramStat::bucketOf(std::uint64_t v)
{
    return static_cast<std::size_t>(std::bit_width(v));
}

std::string
HistogramStat::bucketLabel(std::size_t bucket)
{
    RRM_CHECK(bucket < kNumBuckets, "histogram bucket out of range");
    if (bucket == 0)
        return "0";
    const std::uint64_t lo = std::uint64_t(1) << (bucket - 1);
    // Appended into one string: GCC 12 at -O3 reports a false
    // -Wrestrict in the inlined operator+ chain.
    std::string label = "[";
    label += std::to_string(lo);
    label += ',';
    // Bucket 64's upper bound (2^64) does not fit in a uint64.
    label += bucket == kNumBuckets - 1 ? "inf" : std::to_string(lo * 2);
    label += ')';
    return label;
}

void
HistogramStat::reset()
{
    counts_.fill(0);
    samples_ = 0;
    sum_ = 0.0;
    min_ = ~std::uint64_t(0);
    max_ = 0;
}

void
TextStatWriter::visitHistogram(const std::string &path,
                               const HistogramStat &stat)
{
    dumpLine(os_, path + "::samples",
             static_cast<double>(stat.samples()), stat.desc());
    dumpLine(os_, path + "::mean", stat.mean(), stat.desc());
    dumpLine(os_, path + "::min",
             static_cast<double>(stat.minSample()), stat.desc());
    dumpLine(os_, path + "::max",
             static_cast<double>(stat.maxSample()), stat.desc());
    for (std::size_t i = 0; i < HistogramStat::kNumBuckets; ++i) {
        if (stat.count(i) == 0)
            continue;
        dumpLine(os_, path + "::" + HistogramStat::bucketLabel(i),
                 static_cast<double>(stat.count(i)), stat.desc());
    }
}

template <typename T, typename... Args>
T &
StatGroup::emplaceStat(Args &&...args)
{
    auto stat = std::make_unique<T>(std::forward<Args>(args)...);
    T &ref = *stat;
    statsInOrder_.push_back(std::move(stat));
    return ref;
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    return emplaceStat<Scalar>(name, desc);
}

VectorStat &
StatGroup::addVector(const std::string &name, const std::string &desc,
                     std::vector<std::string> bin_names)
{
    return emplaceStat<VectorStat>(name, desc, std::move(bin_names));
}

Formula &
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      Formula::Fn fn)
{
    return emplaceStat<Formula>(name, desc, std::move(fn));
}

DistributionStat &
StatGroup::addDistribution(const std::string &name, const std::string &desc,
                           std::vector<std::uint64_t> boundaries)
{
    return emplaceStat<DistributionStat>(name, desc,
                                         std::move(boundaries));
}

HistogramStat &
StatGroup::addHistogram(const std::string &name, const std::string &desc)
{
    return emplaceStat<HistogramStat>(name, desc);
}

StatGroup &
StatGroup::addChild(const std::string &name)
{
    children_.push_back(std::make_unique<StatGroup>(name));
    return *children_.back();
}

void
StatGroup::visit(StatVisitor &visitor, const std::string &prefix) const
{
    const std::string path = joinPath(prefix, name_);
    visitor.enterGroup(path);
    for (const auto &stat : statsInOrder_)
        stat->accept(visitor, joinPath(path, stat->name()));
    for (const auto &child : children_)
        child->visit(visitor, path);
    visitor.leaveGroup(path);
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    TextStatWriter writer(os);
    visit(writer, prefix);
}

void
StatGroup::reset()
{
    for (auto &stat : statsInOrder_)
        stat->reset();
    for (auto &child : children_)
        child->reset();
}

const StatBase *
StatGroup::find(const std::string &dotted_path) const
{
    // Children first: every same-named child is tried in registration
    // order, so a child created after an identically named sibling
    // (or after stats of this group) still resolves.
    const auto dot = dotted_path.find('.');
    if (dot != std::string::npos) {
        const std::string head = dotted_path.substr(0, dot);
        const std::string rest = dotted_path.substr(dot + 1);
        for (const auto &child : children_) {
            if (child->name() != head)
                continue;
            if (const StatBase *hit = child->find(rest))
                return hit;
        }
    }
    // Whole-path stat match (also covers stat names containing dots).
    for (const auto &stat : statsInOrder_)
        if (stat->name() == dotted_path)
            return stat.get();
    return nullptr;
}

// ------------------------------------------------- checkpointing

namespace
{

// Framing tags of the stats checkpoint payload. Formulas are derived
// state and are not framed at all.
enum CkptTag : std::uint8_t
{
    kTagScalar = 1,
    kTagVector = 2,
    kTagDistribution = 3,
    kTagHistogram = 4,
    kTagEnterGroup = 10,
    kTagLeaveGroup = 11,
};

/** Kind tag of a stat, or 0 for kinds that carry no state. */
std::uint8_t
tagOf(const StatBase &stat)
{
    if (dynamic_cast<const Scalar *>(&stat))
        return kTagScalar;
    if (dynamic_cast<const VectorStat *>(&stat))
        return kTagVector;
    if (dynamic_cast<const DistributionStat *>(&stat))
        return kTagDistribution;
    if (dynamic_cast<const HistogramStat *>(&stat))
        return kTagHistogram;
    return 0;
}

} // namespace

void
Scalar::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.f64(value_);
}

void
Scalar::restoreCkpt(ckpt::ChunkReader &r)
{
    value_ = r.f64();
}

void
VectorStat::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(values_.size()));
    for (const double v : values_)
        w.f64(v);
}

void
VectorStat::restoreCkpt(ckpt::ChunkReader &r)
{
    const std::uint32_t n = r.u32();
    if (n != values_.size())
        throw ckpt::CkptError("stat vector '" + name() + "' has " +
                              std::to_string(values_.size()) +
                              " bins but the checkpoint holds " +
                              std::to_string(n));
    for (double &v : values_)
        v = r.f64();
}

void
DistributionStat::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(hist_.numBuckets()));
    for (std::size_t i = 0; i < hist_.numBuckets(); ++i)
        w.u64(hist_.count(i));
    w.u64(hist_.total());
    const SampleStats::Raw raw = samples_.raw();
    w.u64(raw.n);
    w.f64(raw.sum);
    w.f64(raw.mean);
    w.f64(raw.m2);
    w.f64(raw.min);
    w.f64(raw.max);
}

void
DistributionStat::restoreCkpt(ckpt::ChunkReader &r)
{
    const std::uint32_t n = r.u32();
    if (n != hist_.numBuckets())
        throw ckpt::CkptError("stat distribution '" + name() +
                              "' has " +
                              std::to_string(hist_.numBuckets()) +
                              " buckets but the checkpoint holds " +
                              std::to_string(n));
    std::vector<std::uint64_t> counts(n);
    for (std::uint64_t &c : counts)
        c = r.u64();
    const std::uint64_t total = r.u64();
    hist_.restoreCounts(counts, total);
    SampleStats::Raw raw;
    raw.n = r.u64();
    raw.sum = r.f64();
    raw.mean = r.f64();
    raw.m2 = r.f64();
    raw.min = r.f64();
    raw.max = r.f64();
    samples_.setRaw(raw);
}

void
HistogramStat::saveCkpt(ckpt::ChunkWriter &w) const
{
    for (const std::uint64_t c : counts_)
        w.u64(c);
    w.u64(samples_);
    w.f64(sum_);
    w.u64(min_);
    w.u64(max_);
}

void
HistogramStat::restoreCkpt(ckpt::ChunkReader &r)
{
    for (std::uint64_t &c : counts_)
        c = r.u64();
    samples_ = r.u64();
    sum_ = r.f64();
    min_ = r.u64();
    max_ = r.u64();
}

void
StatGroup::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u8(kTagEnterGroup);
    w.str(name_);
    for (const auto &stat : statsInOrder_) {
        const std::uint8_t tag = tagOf(*stat);
        if (tag == 0)
            continue;
        w.u8(tag);
        w.str(stat->name());
        stat->saveCkpt(w);
    }
    for (const auto &child : children_)
        child->saveCkpt(w);
    w.u8(kTagLeaveGroup);
}

void
StatGroup::restoreCkpt(ckpt::ChunkReader &r)
{
    if (r.u8() != kTagEnterGroup)
        throw ckpt::CkptError("stats checkpoint: expected group frame "
                              "for '" + name_ + "'");
    if (const std::string saved = r.str(); saved != name_)
        throw ckpt::CkptError("stats checkpoint: group '" + name_ +
                              "' does not match checkpointed group '" +
                              saved + "'");
    for (const auto &stat : statsInOrder_) {
        const std::uint8_t tag = tagOf(*stat);
        if (tag == 0)
            continue;
        const std::uint8_t saved_tag = r.u8();
        const std::string saved_name = r.str();
        if (saved_tag != tag || saved_name != stat->name())
            throw ckpt::CkptError(
                "stats checkpoint: group '" + name_ + "' expects " +
                stat->name() + " next but the checkpoint holds '" +
                saved_name + "' (tag " + std::to_string(saved_tag) +
                ")");
        stat->restoreCkpt(r);
    }
    for (const auto &child : children_)
        child->restoreCkpt(r);
    if (r.u8() != kTagLeaveGroup)
        throw ckpt::CkptError("stats checkpoint: group '" + name_ +
                              "' holds more stats than this build "
                              "registers");
}

} // namespace rrm::stats
