/**
 * @file
 * Trace pack writer and mmap reader (format in trace_pack.hh).
 */

#include "trace/trace_pack.hh"

#include <cstdio>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/generator.hh"

namespace rrm::trace
{

namespace
{

// All fields are stored little-endian. The simulator only targets
// little-endian hosts (x86-64 / aarch64), so stores are plain memcpy;
// the static check below turns a big-endian port into a compile-time
// task instead of silent corruption.
static_assert(std::endian::native == std::endian::little,
              "trace packs are little-endian; add byte swaps before "
              "porting to a big-endian host");

template <typename T>
void
put(unsigned char *dst, std::size_t offset, T value)
{
    std::memcpy(dst + offset, &value, sizeof(T));
}

template <typename T>
T
get(const unsigned char *src, std::size_t offset)
{
    T value;
    std::memcpy(&value, src + offset, sizeof(T));
    return value;
}

void
encodeHeader(unsigned char (&buf)[TracePackHeader::sizeBytes],
             const TracePackHeader &h)
{
    std::memset(buf, 0, sizeof(buf));
    std::memcpy(buf, TracePackHeader::magic, 4);
    put(buf, 4, h.version);
    put(buf, 8, h.recordCount);
    put(buf, 16, h.seed);
    put(buf, 24, h.footprintBytes);
    put(buf, 32, h.meanGapInstructions);
    RRM_CHECK(h.profileName.size() < TracePackHeader::nameBytes,
              "profile name '", h.profileName,
              "' too long for a trace pack header");
    std::memcpy(buf + 40, h.profileName.data(), h.profileName.size());
}

TracePackHeader
decodeHeader(const unsigned char *buf, const std::string &path)
{
    if (std::memcmp(buf, TracePackHeader::magic, 4) != 0)
        fatal("'", path, "' is not a trace pack (bad magic)");
    TracePackHeader h;
    h.version = get<std::uint32_t>(buf, 4);
    if (h.version != TracePackHeader::currentVersion) {
        fatal("trace pack '", path, "' has version ", h.version,
              " but this build reads version ",
              TracePackHeader::currentVersion);
    }
    h.recordCount = get<std::uint64_t>(buf, 8);
    h.seed = get<std::uint64_t>(buf, 16);
    h.footprintBytes = get<std::uint64_t>(buf, 24);
    h.meanGapInstructions = get<double>(buf, 32);
    const char *name = reinterpret_cast<const char *>(buf + 40);
    h.profileName.assign(
        name, strnlen(name, TracePackHeader::nameBytes));
    return h;
}

} // namespace

void
writeTracePack(const std::string &path, const std::string &profile,
               std::uint64_t seed, TraceGenerator &gen,
               std::uint64_t count)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot create trace pack '", path, "'");

    TracePackHeader h;
    h.recordCount = count;
    h.seed = seed;
    h.footprintBytes = gen.footprintBytes();
    h.meanGapInstructions = gen.meanGapInstructions();
    h.profileName = profile;
    unsigned char headerBuf[TracePackHeader::sizeBytes];
    encodeHeader(headerBuf, h);
    if (std::fwrite(headerBuf, sizeof(headerBuf), 1, f) != 1)
        fatal("short write on trace pack '", path, "'");

    // Buffer records so the common multi-million-record pack is a few
    // large writes rather than one syscall per record.
    constexpr std::size_t batch = 1 << 16;
    std::vector<PackedTraceRecord> buf;
    buf.reserve(batch);
    for (std::uint64_t i = 0; i < count; ++i) {
        const TraceRecord rec = gen.next();
        PackedTraceRecord p{};
        p.addr = rec.addr;
        p.gapInstructions = rec.gapInstructions;
        p.type = static_cast<std::uint8_t>(rec.type);
        buf.push_back(p);
        if (buf.size() == batch) {
            if (std::fwrite(buf.data(), sizeof(PackedTraceRecord),
                            buf.size(), f) != buf.size())
                fatal("short write on trace pack '", path, "'");
            buf.clear();
        }
    }
    if (!buf.empty() &&
        std::fwrite(buf.data(), sizeof(PackedTraceRecord), buf.size(),
                    f) != buf.size())
        fatal("short write on trace pack '", path, "'");
    if (std::fclose(f) != 0)
        fatal("error closing trace pack '", path, "'");
}

TracePackReader::TracePackReader(const std::string &path)
    : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fatal("cannot open trace pack '", path, "'");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fatal("cannot stat trace pack '", path, "'");
    }
    const auto fileLen = static_cast<std::size_t>(st.st_size);
    if (fileLen < TracePackHeader::sizeBytes) {
        ::close(fd);
        fatal("trace pack '", path, "' truncated (", fileLen,
              " bytes, header needs ", TracePackHeader::sizeBytes, ")");
    }

    // Decode the header and validate the promised record count against
    // the real file size BEFORE mapping: a pack truncated by a crashed
    // or killed writer is rejected with an exact diagnostic instead of
    // faulting later when the reader walks off the end of the mapping.
    unsigned char headerBuf[TracePackHeader::sizeBytes];
    std::size_t got = 0;
    while (got < sizeof(headerBuf)) {
        const ssize_t n = ::pread(fd, headerBuf + got,
                                  sizeof(headerBuf) - got,
                                  static_cast<off_t>(got));
        if (n <= 0) {
            ::close(fd);
            fatal("cannot read trace pack header from '", path, "'");
        }
        got += static_cast<std::size_t>(n);
    }
    header_ = decodeHeader(headerBuf, path_);
    const std::size_t need =
        TracePackHeader::sizeBytes +
        header_.recordCount * sizeof(PackedTraceRecord);
    if (fileLen < need) {
        ::close(fd);
        fatal("trace pack '", path, "' truncated: header promises ",
              header_.recordCount, " records (", need,
              " bytes) but the file has only ", fileLen);
    }

    void *map = ::mmap(nullptr, fileLen, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
        mapBase_ = static_cast<const unsigned char *>(map);
        mapLen_ = fileLen;
    } else {
        // mmap can fail on exotic filesystems; fall back to reading
        // the whole file into memory.
        fallback_ = std::make_unique<unsigned char[]>(fileLen);
        got = 0;
        while (got < fileLen) {
            const ssize_t n =
                ::read(fd, fallback_.get() + got, fileLen - got);
            if (n <= 0) {
                ::close(fd);
                fatal("cannot read trace pack '", path, "'");
            }
            got += static_cast<std::size_t>(n);
        }
        mapBase_ = fallback_.get();
    }
    ::close(fd);

    records_ = mapBase_ + TracePackHeader::sizeBytes;
}

TracePackReader::~TracePackReader()
{
    if (mapLen_ != 0)
        ::munmap(const_cast<unsigned char *>(mapBase_), mapLen_);
}

} // namespace rrm::trace
