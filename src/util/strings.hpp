// Small string helpers shared across modules.
#pragma once

#include <charconv>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lfp::util {

std::vector<std::string> split(std::string_view text, char delim);

std::string join(std::span<const std::string> parts, std::string_view sep);

/// Lowercase ASCII copy.
std::string to_lower(std::string_view text);

/// Hex dump of bytes, e.g. "80:00:00:09:03:...".
std::string hex(std::span<const std::uint8_t> bytes, char sep = ':');

bool starts_with(std::string_view text, std::string_view prefix);

/// Parses the whole of `text` as a number into `out` with std::from_chars
/// (no sign for unsigned types, no surrounding spaces). Returns false, and
/// leaves `out` alone, when `text` is empty, has bytes left over, or the
/// value does not fit in T.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) return false;
    out = value;
    return true;
}

}  // namespace lfp::util
