#include "common/atomic_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/check.hh"
#include "common/logging.hh"

namespace rrm
{

AtomicFile::AtomicFile(const std::string &path, bool binary)
    : path_(path),
      tmpPath_(path + ".tmp." + std::to_string(::getpid()))
{
    std::ios::openmode mode = std::ios::out | std::ios::trunc;
    if (binary)
        mode |= std::ios::binary;
    out_.open(tmpPath_, mode);
    if (!out_)
        fatal("cannot open '", path_, "' for writing (via temporary '",
              tmpPath_, "')");
}

AtomicFile::~AtomicFile()
{
    if (!committed_) {
        out_.close();
        std::remove(tmpPath_.c_str());
    }
}

void
AtomicFile::commit()
{
    RRM_CHECK(!committed_, "AtomicFile committed twice");
    out_.flush();
    if (!out_)
        fatal("write error on '", path_, "' (temporary '", tmpPath_,
              "')");
    out_.close();
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0)
        fatal("cannot publish '", path_, "': rename from '", tmpPath_,
              "' failed: ", std::strerror(errno));
    committed_ = true;
}

} // namespace rrm
