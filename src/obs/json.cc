/**
 * @file
 * JSON emission implementation.
 */

#include "json.hh"

#include <cmath>
#include <cstdio>

#include "common/check.hh"

namespace rrm::obs
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // 2^53: largest range where every integer is exact in a double.
    constexpr double exact = 9007199254740992.0;
    if (v == std::floor(v) && v > -exact && v < exact) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
JsonWriter::newlineIndent()
{
    if (!pretty_)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::prepareValue()
{
    if (stack_.empty()) {
        RRM_CHECK(!keyPending_, "JSON key outside any object");
        return;
    }
    if (stack_.back() == Frame::Object) {
        RRM_CHECK(keyPending_, "JSON value in object without a key");
        keyPending_ = false;
        return;
    }
    // Array element: comma-separate from the previous element.
    if (!firstInFrame_.back())
        os_ << ',';
    else
        firstInFrame_.back() = false;
    if (pretty_)
        newlineIndent();
}

void
JsonWriter::key(std::string_view k)
{
    RRM_CHECK(!stack_.empty() && stack_.back() == Frame::Object,
              "JSON key outside an object");
    RRM_CHECK(!keyPending_, "JSON key after a dangling key");
    if (!firstInFrame_.back())
        os_ << ',';
    else
        firstInFrame_.back() = false;
    if (pretty_)
        newlineIndent();
    os_ << '"' << jsonEscape(k) << (pretty_ ? "\": " : "\":");
    keyPending_ = true;
}

void
JsonWriter::beginObject()
{
    prepareValue();
    os_ << '{';
    stack_.push_back(Frame::Object);
    firstInFrame_.push_back(true);
}

void
JsonWriter::endObject()
{
    RRM_CHECK(!stack_.empty() && stack_.back() == Frame::Object,
              "unbalanced endObject");
    RRM_CHECK(!keyPending_, "endObject after a dangling key");
    const bool empty = firstInFrame_.back();
    stack_.pop_back();
    firstInFrame_.pop_back();
    if (pretty_ && !empty)
        newlineIndent();
    os_ << '}';
}

void
JsonWriter::beginArray()
{
    prepareValue();
    os_ << '[';
    stack_.push_back(Frame::Array);
    firstInFrame_.push_back(true);
}

void
JsonWriter::endArray()
{
    RRM_CHECK(!stack_.empty() && stack_.back() == Frame::Array,
              "unbalanced endArray");
    const bool empty = firstInFrame_.back();
    stack_.pop_back();
    firstInFrame_.pop_back();
    if (pretty_ && !empty)
        newlineIndent();
    os_ << ']';
}

void
JsonWriter::value(double v)
{
    prepareValue();
    os_ << jsonNumber(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    prepareValue();
    os_ << v;
}

void
JsonWriter::value(std::int64_t v)
{
    prepareValue();
    os_ << v;
}

void
JsonWriter::value(bool v)
{
    prepareValue();
    os_ << (v ? "true" : "false");
}

void
JsonWriter::value(std::string_view v)
{
    prepareValue();
    os_ << '"' << jsonEscape(v) << '"';
}

void
JsonWriter::null()
{
    prepareValue();
    os_ << "null";
}

} // namespace rrm::obs
