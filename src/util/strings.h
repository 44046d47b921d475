#ifndef STORYPIVOT_UTIL_STRINGS_H_
#define STORYPIVOT_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace storypivot {

/// Splits `text` on the single character `sep`. Empty fields are kept, so
/// Split("a,,b", ',') == {"a", "", "b"} and Split("", ',') == {""}.
[[nodiscard]] std::vector<std::string_view> Split(std::string_view text,
                                                  char sep);

/// Joins `parts` with `sep` between consecutive elements.
[[nodiscard]] std::string Join(const std::vector<std::string>& parts,
                               std::string_view sep);
[[nodiscard]] std::string Join(const std::vector<std::string_view>& parts,
                               std::string_view sep);

/// Removes ASCII whitespace from both ends.
[[nodiscard]] std::string_view Trim(std::string_view text);

/// ASCII lowercase copy.
[[nodiscard]] std::string ToLower(std::string_view text);

[[nodiscard]] bool StartsWith(std::string_view text, std::string_view prefix);
[[nodiscard]] bool EndsWith(std::string_view text, std::string_view suffix);

/// printf-style formatting into a std::string. The format string is checked
/// by the compiler.
[[nodiscard]] std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a signed 64-bit integer; returns false on malformed input or
/// overflow. Leading or trailing whitespace is malformed (" 4" and "4 "
/// are refused). The result is meaningless if the return value is
/// ignored, hence [[nodiscard]].
[[nodiscard]] bool ParseInt64(std::string_view text, int64_t* out);

/// Parses a finite double; returns false on malformed input, on leading
/// or trailing whitespace, on overflow or underflow, and on "inf", "nan"
/// and their spellings.
[[nodiscard]] bool ParseDouble(std::string_view text, double* out);

}  // namespace storypivot

#endif  // STORYPIVOT_UTIL_STRINGS_H_
