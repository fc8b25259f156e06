/**
 * @file
 * Strict whole-string number parsing for command-line values and
 * spec fields.
 */

#ifndef RRM_COMMON_PARSE_NUMBER_HH
#define RRM_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace rrm
{

/**
 * The whole of `text` as a T, via std::from_chars: no leading space,
 * no sign on unsigned types, no trailing junk, no overflow, and (for
 * floating types) finite. std::nullopt otherwise, so "12abc" is not
 * 12 and "-1" is not 2^64 - 1.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    T out{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(out))
            return std::nullopt;
    }
    return out;
}

} // namespace rrm

#endif // RRM_COMMON_PARSE_NUMBER_HH
