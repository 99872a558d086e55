// String helpers shared across the curtain libraries.
//
// Everything here is allocation-conscious but favors clarity: these helpers
// run in analysis/reporting paths, not per-packet hot paths.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace curtain::util {

/// Splits `s` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char delim);

/// Joins `parts` with `delim` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; nullopt on any non-digit or overflow.
std::optional<uint64_t> parse_u64(std::string_view s);

/// Fixed-precision decimal formatting without locale surprises.
std::string format_double(double v, int precision);

}  // namespace curtain::util
