/**
 * @file
 * A TraceWriter that collects every event into a caller-owned vector,
 * for tests that need to see what reached a TraceSink.
 */

#ifndef RRM_TESTS_TEST_COLLECTING_WRITER_HH
#define RRM_TESTS_TEST_COLLECTING_WRITER_HH

#include <vector>

#include "obs/trace.hh"

namespace rrm::test
{

class CollectingWriter : public obs::TraceWriter
{
  public:
    explicit CollectingWriter(std::vector<obs::TraceEvent> &out)
        : out_(out)
    {}

    void write(const obs::TraceEvent &ev) override { out_.push_back(ev); }

  private:
    std::vector<obs::TraceEvent> &out_;
};

} // namespace rrm::test

#endif // RRM_TESTS_TEST_COLLECTING_WRITER_HH
