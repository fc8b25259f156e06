/**
 * @file
 * Trace sink and writer implementations.
 */

#include "trace.hh"

#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/check.hh"
#include "common/logging.hh"
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
      case TraceCategory::StartGap:
        return "startgap";
      case TraceCategory::Sampler:
        return "sampler";
      case TraceCategory::Fault:
        return "fault";
      case TraceCategory::NumCategories:
        break;
    }
    return "?";
}

std::uint32_t
parseTraceCategories(const std::string &list)
{
    std::uint32_t mask = 0;
    std::stringstream ss(list);
    std::string name;
    while (std::getline(ss, name, ',')) {
        if (name.empty())
            continue;
        if (name == "all") {
            mask |= traceAllCategories;
            continue;
        }
        bool found = false;
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(
                     TraceCategory::NumCategories);
             ++i) {
            const auto c = static_cast<TraceCategory>(i);
            if (name == traceCategoryName(c)) {
                mask |= traceBit(c);
                found = true;
                break;
            }
        }
        if (!found)
            fatal("unknown trace category '", name, "'");
    }
    return mask;
}

void
TextTraceWriter::write(const TraceEvent &ev)
{
    os_ << ev.tick << " [" << traceCategoryName(ev.category) << "] "
        << (ev.name ? ev.name : "?");
    for (std::size_t i = 0; i < ev.numFields(); ++i) {
        os_ << ' ' << ev.fields[i].key << '='
            << jsonNumber(ev.fields[i].value);
    }
    os_ << '\n';
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

TraceSink::TraceSink(std::size_t capacity, std::uint32_t categories)
    : capacity_(capacity), categoryMask_(categories)
{
    RRM_CHECK(capacity_ > 0, "trace ring needs a positive capacity");
}

void
TraceSink::setWriter(std::unique_ptr<TraceWriter> writer)
{
    writer_ = std::move(writer);
    flush();
}

void
TraceSink::record(const TraceEvent &ev)
{
    ++recorded_;
    if (writer_) {
        writer_->write(ev);
        return;
    }
    if (ring_.size() >= capacity_) {
        ring_.pop_front();
        ++dropped_;
    }
    ring_.push_back(ev);
}

void
TraceSink::flush()
{
    if (!writer_)
        return;
    for (const TraceEvent &ev : ring_)
        writer_->write(ev);
    ring_.clear();
}

void
TraceSink::finishWriter()
{
    flush();
    if (writer_)
        writer_->finish();
}

namespace
{

/**
 * A writer wrapper owning the file it writes to. The file is an
 * AtomicFile: the trace lands under its final name only on finish(),
 * so a killed run leaves no truncated trace behind.
 */
template <typename WriterT>
class OwningFileWriter : public TraceWriter
{
  public:
    explicit OwningFileWriter(const std::string &path)
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
    WriterT writer_;
    bool finished_ = false;
};

} // namespace

std::unique_ptr<TraceWriter>
openTraceFile(const std::string &path, bool text_format)
{
    if (text_format)
        return std::make_unique<OwningFileWriter<TextTraceWriter>>(path);
    return std::make_unique<OwningFileWriter<JsonlTraceWriter>>(path);
}

} // namespace rrm::obs
