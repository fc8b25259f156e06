/**
 * @file
 * The .rckpt checkpoint container: a versioned, checksummed,
 * little-endian section file holding full simulator state at one
 * quiescent decay-epoch boundary (DESIGN.md section 16).
 *
 * Layout:
 *
 *     header   magic "RRMCKPT\0", format version, section count,
 *              config fingerprint, epoch index, quiesce tick,
 *              CRC32 of the preceding header bytes
 *     sections N x { fourcc id, payload length, payload CRC32,
 *                    payload bytes }
 *     trailer  CRC32 of everything before it, end magic
 *
 * Everything is explicit little-endian regardless of host order. A
 * file is only ever published complete: CkptWriter serializes into
 * memory and publishes through AtomicFile (write-temp-then-rename),
 * so a half-written checkpoint can never carry the final name.
 *
 * The event queue is deliberately NOT a section. Checkpoints are
 * taken only at quiescent points where the queue holds nothing but
 * re-armable periodic events (sampler, RRM refresh/decay) and the
 * retention sweep; restore re-schedules those from
 * the saved next-fire ticks. See DESIGN.md section 16 for the
 * quiescent-point contract.
 *
 * Error model: structural problems (bad magic, CRC mismatch,
 * truncation, version or fingerprint mismatch, short section reads)
 * throw CkptError with a message naming the file and the expected vs
 * actual values, so callers can fall back to an older checkpoint or
 * a cold start instead of crashing.
 */

#ifndef RRM_CKPT_CKPT_HH
#define RRM_CKPT_CKPT_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace rrm::ckpt
{

/** Recoverable checkpoint load/validation failure. */
class CkptError : public std::runtime_error
{
  public:
    explicit CkptError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320), seedable for chaining. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Current .rckpt format version. */
constexpr std::uint32_t formatVersion = 8;

/** Section id: four printable characters packed little-endian. */
constexpr std::uint32_t
sectionId(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/** Printable form of a section id ("QUEU", "RRM0", ...). */
std::string sectionName(std::uint32_t id);

/**
 * Append-only little-endian byte sink one section payload is built
 * in. Scalar encoders are explicit about width; f64 round-trips
 * exactly via its IEEE-754 bit pattern.
 */
class ChunkWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void b(bool v) { u8(v ? 1 : 0); }

    /** Length-prefixed UTF-8 string. */
    void str(const std::string &s);

    /** Raw bytes (caller encodes the length). */
    void bytes(const void *data, std::size_t size);

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Cursor over one section payload. Every read is bounds-checked and
 * throws CkptError naming the section on overrun, so a corrupted
 * length field cannot walk out of the payload.
 */
class ChunkReader
{
  public:
    ChunkReader(const std::uint8_t *data, std::size_t size,
                std::string section)
        : data_(data), size_(size), section_(std::move(section))
    {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    bool b() { return u8() != 0; }
    std::string str();
    void bytes(void *out, std::size_t size);

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

    /** Throw CkptError unless the payload was consumed exactly. */
    void expectDone() const;

  private:
    void need(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string section_;
};

/** Header fields of a checkpoint file. */
struct CkptHeader
{
    std::uint32_t version = formatVersion;

    /** Hash of the run's behaviour-determining configuration. */
    std::uint64_t configFingerprint = 0;

    /** Decay-epoch index the checkpoint was taken at (1-based). */
    std::uint64_t epochIndex = 0;

    /** Simulated tick of the quiescent point. */
    std::uint64_t tick = 0;
};

/**
 * Builds one .rckpt file: add sections in order, then publish
 * atomically. Section ids must be unique within a file.
 */
class CkptWriter
{
  public:
    explicit CkptWriter(CkptHeader header) : header_(header) {}

    /** Append one section; the writer's buffer is copied. */
    void section(std::uint32_t id, const ChunkWriter &payload);

    /** Serialize and publish to `path` via AtomicFile. */
    void writeFile(const std::string &path) const;

    /** Serialize to memory (tests, tools). */
    std::vector<std::uint8_t> serialize() const;

  private:
    CkptHeader header_;
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
        sections_;
};

/**
 * Loads and fully validates one .rckpt file up front: magic, version,
 * header CRC, section-table bounds, every section CRC, and the
 * whole-file CRC. After construction every section is known intact.
 */
class CkptReader
{
  public:
    /** Load from a file; throws CkptError on any validation failure. */
    explicit CkptReader(const std::string &path);

    /** Load from memory (`name` labels errors). */
    CkptReader(std::vector<std::uint8_t> data, std::string name);

    const CkptHeader &header() const { return header_; }
    const std::string &name() const { return name_; }

    /** Section ids in file order. */
    std::vector<std::uint32_t> sectionIds() const;

    bool hasSection(std::uint32_t id) const
    {
        return sections_.count(id) != 0;
    }

    /** Payload size of a section; throws CkptError if absent. */
    std::size_t sectionSize(std::uint32_t id) const;

    /** Cursor over a section; throws CkptError if absent. */
    ChunkReader section(std::uint32_t id) const;

    /** Raw payload bytes of a section (tools/rrm-ckpt diff). */
    const std::vector<std::uint8_t> &sectionData(std::uint32_t id) const;

    /**
     * Validate a file without keeping it: the CkptError message on
     * failure, or an empty string when the file is intact.
     */
    static std::string validateFile(const std::string &path);

  private:
    void parse(const std::vector<std::uint8_t> &data);

    std::string name_;
    CkptHeader header_;
    std::map<std::uint32_t, std::vector<std::uint8_t>> sections_;
    std::vector<std::uint32_t> order_;
};

} // namespace rrm::ckpt

#endif // RRM_CKPT_CKPT_HH
