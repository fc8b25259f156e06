/**
 * @file
 * Minimal deterministic JSON emission used by every machine-readable
 * exporter (stat writers, trace JSONL, run records, bench reports).
 *
 * Determinism contract: for a given sequence of calls the emitted
 * bytes are identical across runs and platforms — numbers are
 * formatted with a fixed snprintf recipe (integers without a decimal
 * point, everything else with %.17g), keys are written in caller
 * order, and no locale-dependent facilities are used. Two identical
 * seeded simulations therefore export byte-identical JSON, which the
 * golden-file tests rely on.
 */

#ifndef RRM_OBS_JSON_HH
#define RRM_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rrm::obs
{

/** Escape a string for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

/**
 * Format a double deterministically: integral values within the
 * exactly-representable range print without a fraction; non-finite
 * values (which JSON cannot represent) print as null.
 */
std::string jsonNumber(double v);

/**
 * A streaming JSON writer with automatic comma / indentation
 * management. Call sequence errors (value without a key inside an
 * object, unbalanced end*) are programming bugs and fail an RRM_CHECK.
 */
class JsonWriter
{
  public:
    /** @param pretty Two-space indentation and newlines when true. */
    explicit JsonWriter(std::ostream &os, bool pretty = false)
        : os_(os), pretty_(pretty)
    {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** @{ Containers. */
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    /** @} */

    /** Write an object key; must be followed by a value/container. */
    void key(std::string_view k);

    /** @{ Values. */
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void value(bool v);
    void value(std::string_view v);
    void value(const char *v) { value(std::string_view(v)); }
    void null();
    /** @} */

    /** @{ key() + value() in one call. */
    template <typename T>
    void
    field(std::string_view k, const T &v)
    {
        key(k);
        value(v);
    }
    /** @} */

  private:
    enum class Frame : std::uint8_t { Object, Array };

    /** Emit separators/indentation before a value or key. */
    void prepareValue();
    void newlineIndent();

    std::ostream &os_;
    bool pretty_;
    bool keyPending_ = false;
    std::vector<Frame> stack_;
    std::vector<bool> firstInFrame_;
};

} // namespace rrm::obs

#endif // RRM_OBS_JSON_HH
