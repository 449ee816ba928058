// Small string utilities shared across modules (path parsing in policy
// trees, CSV-ish trace IO, identity names, command-line numbers).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace aequus::util {

/// Parse a whole command-line value as a number. Trailing garbage
/// ("80x0") or an empty value fails with "<flag>: invalid number '<text>'"
/// on stderr, and so does a sign on an unsigned count: a prefix parse
/// would silently run with a different value, or none.
template <typename T>
[[nodiscard]] bool parse_number(const std::string& flag, const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, out);
  if (error == std::errc{} && stop == end && stop != text) return true;
  std::fprintf(stderr, "%s: invalid number '%s'\n", flag.c_str(), text);
  return false;
}

/// Split `input` on `delimiter`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view input, char delimiter);

/// Split on `delimiter`, discarding empty fields (useful for '/'-paths).
[[nodiscard]] std::vector<std::string> split_nonempty(std::string_view input, char delimiter);

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view input) noexcept;

/// Join parts with `delimiter`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view delimiter);

/// True if `value` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view value, std::string_view prefix) noexcept;

/// True if `value` ends with `suffix`.
[[nodiscard]] bool ends_with(std::string_view value, std::string_view suffix) noexcept;

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Render seconds of simulated time as "HHh MMm SSs" for reports.
[[nodiscard]] std::string format_duration(double seconds);

/// FNV-1a 64-bit hash; used to abbreviate determinism fingerprints (which
/// can run to megabytes) in machine-readable bench reports.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data) noexcept;

}  // namespace aequus::util
