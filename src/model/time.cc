#include "model/time.h"

#include "util/strings.h"

namespace storypivot {
namespace {

// Days from 1970-01-01 to year/month/day (Howard Hinnant's algorithm).
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  int64_t era = (y >= 0 ? y : y - 399) / 400;
  unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0,146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0, 146096]
  unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  *d = doy - (153 * mp + 2) / 5 + 1;                       // [1, 31]
  *m = mp + (mp < 10 ? 3 : -9);                            // [1, 12]
  *y = static_cast<int>(yy + (*m <= 2));
}

/// Reads the `width` ASCII digits at `pos`; false on any other byte.
bool ParseDigits(std::string_view text, size_t pos, size_t width, int* out) {
  int value = 0;
  for (size_t i = pos; i < pos + width; ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    value = value * 10 + (text[i] - '0');
  }
  *out = value;
  return true;
}

int DaysInMonth(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  return month == 2 && leap ? 29 : kDays[month - 1];
}

}  // namespace

Timestamp TimestampFromCivil(const CivilDate& date) {
  return DaysFromCivil(date.year, date.month, date.day) * kSecondsPerDay;
}

Timestamp MakeTimestamp(int year, int month, int day, int hour, int minute,
                        int second) {
  return TimestampFromCivil({year, month, day}) + hour * kSecondsPerHour +
         minute * kSecondsPerMinute + second;
}

CivilDate CivilFromTimestamp(Timestamp ts) {
  int64_t days = ts / kSecondsPerDay;
  if (ts < 0 && ts % kSecondsPerDay != 0) --days;
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return {y, static_cast<int>(m), static_cast<int>(d)};
}

std::string FormatDate(Timestamp ts) {
  CivilDate c = CivilFromTimestamp(ts);
  return StrFormat("%04d-%02d-%02d", c.year, c.month, c.day);
}

std::string FormatDateTime(Timestamp ts) {
  int64_t days = ts / kSecondsPerDay;
  if (ts < 0 && ts % kSecondsPerDay != 0) --days;
  int64_t secs_of_day = ts - days * kSecondsPerDay;
  int hour = static_cast<int>(secs_of_day / kSecondsPerHour);
  int minute = static_cast<int>((secs_of_day % kSecondsPerHour) /
                                kSecondsPerMinute);
  return FormatDate(ts) + StrFormat(" %02d:%02d", hour, minute);
}

bool ParseDateTime(std::string_view text, Timestamp* out) {
  if (text.size() != 10 && text.size() != 16) return false;
  int year = 0, month = 0, day = 0, hour = 0, minute = 0;
  if (!ParseDigits(text, 0, 4, &year) || text[4] != '-' ||
      !ParseDigits(text, 5, 2, &month) || text[7] != '-' ||
      !ParseDigits(text, 8, 2, &day)) {
    return false;
  }
  if (text.size() == 16 &&
      (text[10] != ' ' || !ParseDigits(text, 11, 2, &hour) ||
       text[13] != ':' || !ParseDigits(text, 14, 2, &minute))) {
    return false;
  }
  if (month < 1 || month > 12 || day < 1 ||
      day > DaysInMonth(year, month) || hour > 23 || minute > 59) {
    return false;
  }
  *out = MakeTimestamp(year, month, day, hour, minute);
  return true;
}

}  // namespace storypivot
