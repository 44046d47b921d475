#ifndef STORYPIVOT_MODEL_TIME_H_
#define STORYPIVOT_MODEL_TIME_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace storypivot {

/// Event timestamps are UTC seconds since the Unix epoch (like GDELT's
/// day-level timestamps, but at second resolution so reporting delays can
/// be modelled).
using Timestamp = int64_t;

inline constexpr Timestamp kSecondsPerMinute = 60;
inline constexpr Timestamp kSecondsPerHour = 3600;
inline constexpr Timestamp kSecondsPerDay = 86400;

/// A calendar date (proleptic Gregorian, UTC).
struct CivilDate {
  int year = 1970;
  int month = 1;  // 1-12
  int day = 1;    // 1-31

  bool operator==(const CivilDate&) const = default;
};

/// Converts a civil date to the timestamp of its UTC midnight.
/// Uses the days-from-civil algorithm, valid far beyond any news archive.
Timestamp TimestampFromCivil(const CivilDate& date);

/// Convenience overload.
Timestamp MakeTimestamp(int year, int month, int day, int hour = 0,
                        int minute = 0, int second = 0);

/// Converts a timestamp back to its UTC civil date.
CivilDate CivilFromTimestamp(Timestamp ts);

/// Formats as "YYYY-MM-DD".
std::string FormatDate(Timestamp ts);

/// Formats as "YYYY-MM-DD HH:MM".
std::string FormatDateTime(Timestamp ts);

/// Parses "YYYY-MM-DD" (UTC midnight) or "YYYY-MM-DD HH:MM": exactly
/// that length, zero-padded digits, a day that exists in its month (leap
/// years included), hour 0-23 and minute 0-59. Returns false and leaves
/// `out` unchanged on anything else.
bool ParseDateTime(std::string_view text, Timestamp* out);

}  // namespace storypivot

#endif  // STORYPIVOT_MODEL_TIME_H_
