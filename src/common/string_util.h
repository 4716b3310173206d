// Small string helpers shared across modules. ASCII-only by design: the
// paper's DSL character classes (digits, lower, upper, whitespace) are ASCII
// classes, so the whole pipeline treats strings as byte sequences.
#ifndef USTL_COMMON_STRING_UTIL_H_
#define USTL_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ustl {

/// Splits `s` on any run of the single character `sep`; empty pieces are
/// dropped. Split("a  b", ' ') == {"a", "b"}.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

/// Splits `s` on each occurrence of `sep`, keeping empty pieces.
/// Split("a,,b", ',') == {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// ASCII upper-casing.
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Collapses runs of whitespace to single spaces and trims the ends.
std::string NormalizeWhitespace(std::string_view s);

/// Escapes a string for display in reports: control chars become \xNN.
std::string EscapeForDisplay(std::string_view s);

/// Appends `value` to `out` as a quoted JSON string: quote, backslash,
/// \n and \t get their short escapes, other control bytes \u00XX; every
/// other byte (UTF-8 included) passes through unchanged.
void AppendJsonString(std::string* out, std::string_view value);

/// Parses a whole string of ASCII decimal digits as an unsigned integer.
/// Empty strings, signs, whitespace, trailing junk and values past
/// UINT64_MAX yield nullopt, unlike strtoull's silent 0 or wraparound.
std::optional<uint64_t> ParseUnsigned(std::string_view s);

}  // namespace ustl

#endif  // USTL_COMMON_STRING_UTIL_H_
