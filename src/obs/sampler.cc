/**
 * @file
 * Sampler implementation.
 */

#include "sampler.hh"

#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "obs/json.hh"

namespace rrm::obs
{

double
statValue(const stats::StatBase *stat)
{
    if (!stat)
        return 0.0;
    if (const auto *s = dynamic_cast<const stats::Scalar *>(stat))
        return s->value();
    if (const auto *f = dynamic_cast<const stats::Formula *>(stat))
        return f->value();
    if (const auto *v = dynamic_cast<const stats::VectorStat *>(stat))
        return v->total();
    if (const auto *d =
            dynamic_cast<const stats::DistributionStat *>(stat))
        return static_cast<double>(d->samples().count());
    return 0.0;
}

Sampler::Sampler(EventQueue &queue, Tick interval)
    : queue_(queue), interval_(interval)
{
    RRM_CHECK(interval_ > 0, "sampler interval must be positive");
}

void
Sampler::addColumn(std::string name, ColumnFn fn)
{
    RRM_CHECK(rows_.empty(),
              "sampler columns must be registered before sampling");
    RRM_CHECK(fn, "sampler column needs a function");
    columnNames_.push_back(std::move(name));
    columns_.push_back(std::move(fn));
}

void
Sampler::addStat(const stats::StatGroup &root, const std::string &path)
{
    addColumn(path,
              [&root, path] { return statValue(root.find(path)); });
}

void
Sampler::start()
{
    RRM_CHECK(!task_, "sampler already started");
    task_ = std::make_unique<PeriodicTask>(
        queue_, interval_, queue_.now() + interval_,
        [this] { sampleNow(); }, EventPriority::Sampler);
}

void
Sampler::stop()
{
    task_.reset();
}

void
Sampler::sampleNow()
{
    Row row;
    row.tick = queue_.now();
    row.values.reserve(columns_.size());
    for (const ColumnFn &fn : columns_)
        row.values.push_back(fn());
    rows_.push_back(std::move(row));
    RRM_TRACE(traceSink_, queue_.now(), TraceCategory::Sampler,
              "sample", RRM_TF("row", rows_.size() - 1),
              RRM_TF("columns", columns_.size()));
    if (sampleHook_)
        sampleHook_();
}

void
Sampler::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(interval_);
    w.u64(columns_.size());
    w.u64(rows_.size());
    for (const Row &row : rows_) {
        w.u64(row.tick);
        for (const double v : row.values)
            w.f64(v);
    }
    w.b(task_ != nullptr);
    if (task_)
        w.u64(task_->nextFireAt());
}

void
Sampler::restoreCkpt(ckpt::ChunkReader &r)
{
    RRM_CHECK(!task_ && rows_.empty(), "restoreCkpt() on a started sampler");
    const std::uint64_t interval = r.u64();
    const std::uint64_t cols = r.u64();
    if (interval != interval_ || cols != columns_.size())
        throw ckpt::CkptError(
            "sampler checkpoint shape mismatch: have interval " +
            std::to_string(interval_) + " x " +
            std::to_string(columns_.size()) + " columns, got " +
            std::to_string(interval) + " x " + std::to_string(cols));
    const std::uint64_t n = r.u64();
    // A tick and `cols` values per row: never reserve past what the
    // payload can hold.
    if (n > r.remaining() / ((1 + cols) * 8))
        throw ckpt::CkptError("sampler checkpoint claims " +
                              std::to_string(n) + " rows in " +
                              std::to_string(r.remaining()) +
                              " payload bytes");
    rows_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Row row;
        row.tick = r.u64();
        row.values.reserve(cols);
        for (std::uint64_t c = 0; c < cols; ++c)
            row.values.push_back(r.f64());
        rows_.push_back(std::move(row));
    }
    if (r.b()) {
        const Tick first = r.u64();
        task_ = std::make_unique<PeriodicTask>(
            queue_, interval_, first, [this] { sampleNow(); },
            EventPriority::Sampler);
    }
}

void
Sampler::writeCsv(std::ostream &os) const
{
    os << "time_s";
    for (const std::string &name : columnNames_)
        os << ',' << name;
    os << '\n';
    for (const Row &row : rows_) {
        os << jsonNumber(ticksToSeconds(row.tick));
        for (const double v : row.values)
            os << ',' << jsonNumber(v);
        os << '\n';
    }
}

} // namespace rrm::obs
