#ifndef STORYPIVOT_EXAMPLES_FLAGS_H_
#define STORYPIVOT_EXAMPLES_FLAGS_H_

// The `--name value` flags of the example command-line tools.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/strings.h"

namespace storypivot {

/// Parses `text` as a base-10 integer in [min, max]. Anything else —
/// malformed, overflowing or out of range — is kInvalidArgument naming
/// the flag `name` and the accepted range.
[[nodiscard]] inline Result<int64_t> ParseIntFlag(std::string_view name,
                                                  std::string_view text,
                                                  int64_t min, int64_t max) {
  int64_t value = 0;
  if (!ParseInt64(text, &value) || value < min || value > max) {
    return Status::InvalidArgument(StrFormat(
        "%.*s wants an integer in [%lld, %lld], got \"%.*s\"",
        static_cast<int>(name.size()), name.data(),
        static_cast<long long>(min), static_cast<long long>(max),
        static_cast<int>(text.size()), text.data()));
  }
  return value;
}

/// A tool's command-line flags. A flag may appear anywhere in `argv`; the
/// first occurrence wins. Integer flags carry a range, and the first bad
/// value is kept in status() so the tool can refuse the whole command
/// line before it reads, opens or starts anything.
class Flags {
 public:
  /// `argv` must outlive the Flags.
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// True when `name` appears, as a switch or with a value.
  [[nodiscard]] bool Has(const char* name) const {
    for (int i = 0; i < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) return true;
    }
    return false;
  }

  /// The value after `name`; false when the flag is absent.
  [[nodiscard]] bool Get(const char* name, std::string* out) const {
    for (int i = 0; i + 1 < argc_; ++i) {
      if (std::strcmp(argv_[i], name) == 0) {
        *out = argv_[i + 1];
        return true;
      }
    }
    return false;
  }

  /// The integer after `name`, or `def` when the flag is absent. A value
  /// that ParseIntFlag refuses returns `def` and is recorded in status()
  /// unless an earlier flag already failed.
  [[nodiscard]] int64_t Int(const char* name, int64_t def, int64_t min,
                            int64_t max) {
    std::string text;
    if (!Get(name, &text)) return def;
    Result<int64_t> value = ParseIntFlag(name, text, min, max);
    if (value.ok()) return value.value();
    if (status_.ok()) status_ = value.status();
    return def;
  }

  /// OK, or the first bad flag value.
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  int argc_;
  char** argv_;
  Status status_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_EXAMPLES_FLAGS_H_
