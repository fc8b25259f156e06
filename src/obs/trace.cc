/**
 * @file
 * Trace sink and writer implementations.
 */

#include "trace.hh"

#include "common/atomic_file.hh"
#include "common/check.hh"
#include "obs/json.hh"

namespace rrm::obs
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::RrmLifecycle:
        return "rrm";
      case TraceCategory::Refresh:
        return "refresh";
      case TraceCategory::Queue:
        return "queue";
      case TraceCategory::Sampler:
        return "sampler";
      case TraceCategory::Fault:
        return "fault";
      case TraceCategory::NumCategories:
        break;
    }
    return "?";
}

void
JsonlTraceWriter::write(const TraceEvent &ev)
{
    JsonWriter w(os_);
    w.beginObject();
    w.field("tick", ev.tick);
    w.field("cat", traceCategoryName(ev.category));
    w.field("event", ev.name ? ev.name : "?");
    for (std::size_t i = 0; i < ev.numFields(); ++i)
        w.field(ev.fields[i].key, ev.fields[i].value);
    w.endObject();
    os_ << '\n';
}

TeeTraceWriter::TeeTraceWriter(std::unique_ptr<TraceWriter> a,
                               std::unique_ptr<TraceWriter> b)
    : a_(std::move(a)), b_(std::move(b))
{
    RRM_CHECK(a_ && b_, "tee writer needs two live writers");
}

void
TeeTraceWriter::write(const TraceEvent &ev)
{
    a_->write(ev);
    b_->write(ev);
}

void
TeeTraceWriter::finish()
{
    a_->finish();
    b_->finish();
}

TraceSink::TraceSink(std::unique_ptr<TraceWriter> writer)
    : writer_(std::move(writer))
{
    RRM_CHECK(writer_, "trace sink needs a writer");
}

void
TraceSink::record(const TraceEvent &ev)
{
    ++recorded_;
    writer_->write(ev);
}

namespace
{

/**
 * A JSONL writer owning the file it writes to. The file is an
 * AtomicFile: the trace lands under its final name only on finish(),
 * so a killed run leaves no truncated trace behind.
 */
class OwningJsonlWriter : public TraceWriter
{
  public:
    explicit OwningJsonlWriter(const std::string &path)
        : file_(path), writer_(file_.stream())
    {
    }

    void write(const TraceEvent &ev) override { writer_.write(ev); }

    void finish() override
    {
        if (finished_)
            return;
        finished_ = true;
        writer_.finish();
        file_.commit();
    }

  private:
    AtomicFile file_;
    JsonlTraceWriter writer_;
    bool finished_ = false;
};

} // namespace

std::unique_ptr<TraceWriter>
openTraceFile(const std::string &path)
{
    return std::make_unique<OwningJsonlWriter>(path);
}

} // namespace rrm::obs
