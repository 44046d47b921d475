#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace storypivot {

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

namespace {
template <typename Parts>
std::string JoinImpl(const Parts& parts, std::string_view sep) {
  std::string out;
  size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  out.reserve(total);
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  return JoinImpl(parts, sep);
}

std::string Join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return JoinImpl(parts, sep);
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool ParseInt64(std::string_view text, int64_t* out) {
  // strtoll would skip leading whitespace; the contract refuses it.
  if (text.empty() || text.size() > 31 ||
      std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char buf[32];
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(buf, &end, 10);
  if (errno == ERANGE || end != buf + text.size()) return false;
  *out = static_cast<int64_t>(value);
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty() || text.size() > 63 ||
      std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char buf[64];
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buf, &end);
  if (errno == ERANGE || end != buf + text.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace storypivot
