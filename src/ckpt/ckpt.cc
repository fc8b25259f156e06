#include "ckpt/ckpt.hh"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>

#include "common/atomic_file.hh"
#include "common/check.hh"

namespace rrm::ckpt
{

namespace
{

// File framing constants. The 8-byte magic doubles as an endianness
// and truncation sentinel; the end magic guards against a file cut
// exactly at a section boundary.
constexpr std::array<std::uint8_t, 8> fileMagic = {'R', 'R', 'M', 'C',
                                                   'K', 'P', 'T', 0};
constexpr std::uint32_t endMagic = sectionId('T', 'P', 'K', 'C');

// header bytes covered by the header CRC: magic + version +
// sectionCount + fingerprint + epochIndex + tick
constexpr std::size_t headerCrcSpan = 8 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t headerSize = headerCrcSpan + 4;

// per-section frame: id + payload length (u64) + payload CRC
constexpr std::size_t sectionFrameSize = 4 + 8 + 4;

// trailer: whole-file CRC + end magic
constexpr std::size_t trailerSize = 4 + 4;

std::uint32_t
crcTableEntry(std::uint32_t i)
{
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    return c;
}

const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i)
            t[i] = crcTableEntry(i);
        return t;
    }();
    return table;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           static_cast<std::uint64_t>(getU32(p + 4)) << 32;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto &table = crcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
sectionName(std::uint32_t id)
{
    std::string name;
    for (int shift = 0; shift < 32; shift += 8) {
        const char c = static_cast<char>((id >> shift) & 0xFF);
        name += (c >= 0x20 && c < 0x7F) ? c : '?';
    }
    return name;
}

// ----------------------------------------------------------- chunks

void
ChunkWriter::u16(std::uint16_t v)
{
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
ChunkWriter::u32(std::uint32_t v)
{
    putU32(buf_, v);
}

void
ChunkWriter::u64(std::uint64_t v)
{
    putU64(buf_, v);
}

void
ChunkWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
ChunkWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

void
ChunkWriter::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + size);
}

void
ChunkReader::need(std::size_t n) const
{
    if (size_ - pos_ < n)
        throw CkptError("checkpoint section '" + section_ +
                        "': short read at offset " +
                        std::to_string(pos_) + " (need " +
                        std::to_string(n) + " bytes, " +
                        std::to_string(size_ - pos_) + " left)");
}

std::uint8_t
ChunkReader::u8()
{
    need(1);
    return data_[pos_++];
}

std::uint16_t
ChunkReader::u16()
{
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | data_[pos_ + 1] << 8);
    pos_ += 2;
    return v;
}

std::uint32_t
ChunkReader::u32()
{
    need(4);
    const std::uint32_t v = getU32(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
ChunkReader::u64()
{
    need(8);
    const std::uint64_t v = getU64(data_ + pos_);
    pos_ += 8;
    return v;
}

double
ChunkReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
ChunkReader::str()
{
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

void
ChunkReader::bytes(void *out, std::size_t size)
{
    need(size);
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
}

void
ChunkReader::expectDone() const
{
    if (pos_ != size_)
        throw CkptError("checkpoint section '" + section_ + "': " +
                        std::to_string(size_ - pos_) +
                        " trailing bytes after the last field");
}

// ----------------------------------------------------------- writer

void
CkptWriter::section(std::uint32_t id, const ChunkWriter &payload)
{
    for (const auto &[existing, data] : sections_) {
        (void)data;
        RRM_CHECK(existing != id, "duplicate checkpoint section ",
                  sectionName(id));
    }
    sections_.emplace_back(id, payload.data());
}

std::vector<std::uint8_t>
CkptWriter::serialize() const
{
    std::size_t total = headerSize + trailerSize;
    for (const auto &[id, payload] : sections_) {
        (void)id;
        total += sectionFrameSize + payload.size();
    }

    std::vector<std::uint8_t> out;
    out.reserve(total);
    for (const std::uint8_t byte : fileMagic)
        out.push_back(byte);
    putU32(out, formatVersion);
    putU32(out, static_cast<std::uint32_t>(sections_.size()));
    putU64(out, header_.configFingerprint);
    putU64(out, header_.epochIndex);
    putU64(out, header_.tick);
    putU32(out, crc32(out.data(), headerCrcSpan));

    for (const auto &[id, payload] : sections_) {
        putU32(out, id);
        putU64(out, payload.size());
        putU32(out, crc32(payload.data(), payload.size()));
        const std::size_t at = out.size();
        out.resize(at + payload.size());
        if (!payload.empty())
            std::memcpy(out.data() + at, payload.data(),
                        payload.size());
    }

    putU32(out, crc32(out.data(), out.size()));
    putU32(out, endMagic);
    RRM_CHECK(out.size() == total, "checkpoint size accounting drift");
    return out;
}

void
CkptWriter::writeFile(const std::string &path) const
{
    const std::vector<std::uint8_t> data = serialize();
    AtomicFile file(path, /*binary=*/true);
    file.stream().write(reinterpret_cast<const char *>(data.data()),
                        static_cast<std::streamsize>(data.size()));
    file.commit();
}

// ----------------------------------------------------------- reader

CkptReader::CkptReader(const std::string &path) : name_(path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CkptError("checkpoint '" + path + "': cannot open");
    std::vector<std::uint8_t> data(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        throw CkptError("checkpoint '" + path + "': read error");
    parse(data);
}

CkptReader::CkptReader(std::vector<std::uint8_t> data, std::string name)
    : name_(std::move(name))
{
    parse(data);
}

void
CkptReader::parse(const std::vector<std::uint8_t> &data)
{
    if (data.size() < headerSize + trailerSize)
        throw CkptError("checkpoint '" + name_ + "': truncated (" +
                        std::to_string(data.size()) +
                        " bytes, need at least " +
                        std::to_string(headerSize + trailerSize) + ")");

    if (!std::equal(fileMagic.begin(), fileMagic.end(), data.begin()))
        throw CkptError("checkpoint '" + name_ +
                        "': bad magic (not a .rckpt file)");

    const std::uint32_t version = getU32(data.data() + 8);
    if (version != formatVersion)
        throw CkptError("checkpoint '" + name_ +
                        "': format version mismatch (file has " +
                        std::to_string(version) + ", this build reads " +
                        std::to_string(formatVersion) + ")");

    const std::uint32_t headerCrc = getU32(data.data() + headerCrcSpan);
    const std::uint32_t headerCrcActual =
        crc32(data.data(), headerCrcSpan);
    if (headerCrc != headerCrcActual)
        throw CkptError("checkpoint '" + name_ +
                        "': header CRC mismatch (expected " +
                        std::to_string(headerCrc) + ", computed " +
                        std::to_string(headerCrcActual) + ")");

    // Whole-file CRC + end magic.
    const std::size_t trailerAt = data.size() - trailerSize;
    if (getU32(data.data() + trailerAt + 4) != endMagic)
        throw CkptError("checkpoint '" + name_ +
                        "': missing end marker (file truncated?)");
    const std::uint32_t fileCrc = getU32(data.data() + trailerAt);
    const std::uint32_t fileCrcActual = crc32(data.data(), trailerAt);
    if (fileCrc != fileCrcActual)
        throw CkptError("checkpoint '" + name_ +
                        "': file CRC mismatch (expected " +
                        std::to_string(fileCrc) + ", computed " +
                        std::to_string(fileCrcActual) + ")");

    const std::uint32_t sectionCount = getU32(data.data() + 12);
    header_.version = version;
    header_.configFingerprint = getU64(data.data() + 16);
    header_.epochIndex = getU64(data.data() + 24);
    header_.tick = getU64(data.data() + 32);

    std::size_t pos = headerSize;
    for (std::uint32_t i = 0; i < sectionCount; ++i) {
        if (trailerAt - pos < sectionFrameSize)
            throw CkptError("checkpoint '" + name_ + "': section " +
                            std::to_string(i) +
                            " frame extends past the trailer");
        const std::uint32_t id = getU32(data.data() + pos);
        const std::uint64_t len = getU64(data.data() + pos + 4);
        const std::uint32_t crc = getU32(data.data() + pos + 12);
        pos += sectionFrameSize;
        if (trailerAt - pos < len)
            throw CkptError(
                "checkpoint '" + name_ + "': section '" +
                sectionName(id) + "' payload (" + std::to_string(len) +
                " bytes) extends past the trailer (" +
                std::to_string(trailerAt - pos) + " available)");
        const std::uint32_t actual = crc32(data.data() + pos, len);
        if (crc != actual)
            throw CkptError("checkpoint '" + name_ + "': section '" +
                            sectionName(id) +
                            "' CRC mismatch (expected " +
                            std::to_string(crc) + ", computed " +
                            std::to_string(actual) + ")");
        if (sections_.count(id))
            throw CkptError("checkpoint '" + name_ +
                            "': duplicate section '" + sectionName(id) +
                            "'");
        sections_.emplace(
            id, std::vector<std::uint8_t>(data.begin() + pos,
                                          data.begin() + pos + len));
        order_.push_back(id);
        pos += len;
    }
    if (pos != trailerAt)
        throw CkptError("checkpoint '" + name_ + "': " +
                        std::to_string(trailerAt - pos) +
                        " unclaimed bytes between the last section and "
                        "the trailer");
}

std::vector<std::uint32_t>
CkptReader::sectionIds() const
{
    return order_;
}

std::size_t
CkptReader::sectionSize(std::uint32_t id) const
{
    return sectionData(id).size();
}

ChunkReader
CkptReader::section(std::uint32_t id) const
{
    const auto &data = sectionData(id);
    return ChunkReader(data.data(), data.size(), sectionName(id));
}

const std::vector<std::uint8_t> &
CkptReader::sectionData(std::uint32_t id) const
{
    const auto it = sections_.find(id);
    if (it == sections_.end())
        throw CkptError("checkpoint '" + name_ + "': missing section '" +
                        sectionName(id) + "'");
    return it->second;
}

std::string
CkptReader::validateFile(const std::string &path)
{
    try {
        CkptReader reader(path);
    } catch (const CkptError &e) {
        return e.what();
    }
    return "";
}

} // namespace rrm::ckpt
