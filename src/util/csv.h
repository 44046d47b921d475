#ifndef STORYPIVOT_UTIL_CSV_H_
#define STORYPIVOT_UTIL_CSV_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/fs.h"  // IWYU pragma: export — historical home of file IO.
#include "util/status.h"

namespace storypivot {

/// Appends `field` to `out` as one delimiter-separated field. A field
/// containing the delimiter, a quote, or a line break is quoted and inner
/// quotes doubled (RFC-4180 style, generalised to any single-char
/// delimiter). The one quoting rule of every DSV writer: DsvWriter and the
/// snapshot writer (core/snapshot) both append through it.
void AppendDsvField(std::string_view field, char delimiter, std::string* out);

/// Writes rows of fields as delimiter-separated lines (AppendDsvField).
class DsvWriter {
 public:
  explicit DsvWriter(char delimiter = '\t') : delimiter_(delimiter) {}

  /// Appends one row to the in-memory buffer.
  void WriteRow(const std::vector<std::string>& fields);

  /// The accumulated file contents.
  const std::string& contents() const { return buffer_; }

  /// Writes the buffer to `path`, replacing any existing file.
  [[nodiscard]] Status Flush(const std::string& path) const;

 private:
  char delimiter_;
  std::string buffer_;
};

/// One input row skipped by permissive parsing, with the 1-based line
/// where the row started and why it was dropped.
struct DsvSkipped {
  size_t line = 0;
  std::string reason;
};

/// Result of `DsvReader::ParsePermissive`: the rows that parsed, the
/// 1-based start line of each (for downstream per-line diagnostics),
/// and the quarantined rows.
struct PermissiveDsv {
  std::vector<std::vector<std::string>> rows;
  std::vector<size_t> row_lines;
  std::vector<DsvSkipped> skipped;
};

/// Parses delimiter-separated content produced by DsvWriter (or plain
/// TSV/CSV without quotes). One grammar serves every entry point: a field
/// that starts with a quote runs to the matching quote (doubled quotes
/// are literal, line breaks included); anything else runs to the next
/// delimiter or line break. `\n`, `\r\n` and a lone `\r` end a row; blank
/// lines are no rows.
class DsvReader {
 public:
  explicit DsvReader(char delimiter = '\t') : delimiter_(delimiter) {}

  /// Called once per row with the 1-based line the row starts on and its
  /// fields. The views are valid only during the call: unquoted fields
  /// point into the parsed contents, quoted ones into a per-row buffer.
  using RowVisitor = std::function<Status(
      size_t line, const std::vector<std::string_view>& fields)>;

  /// Visits every row of `contents` in order without materialising them.
  /// A non-OK status from `visit` stops the parse and is returned. An
  /// unterminated quoted field fails with InvalidArgument naming the line
  /// it opened on — after the rows before it were visited.
  [[nodiscard]] Status Visit(std::string_view contents,
                             const RowVisitor& visit) const;

  /// Parses the full `contents` into rows of fields. Errors carry the
  /// 1-based line number of the offending input.
  [[nodiscard]] Result<std::vector<std::vector<std::string>>> Parse(
      std::string_view contents) const;

  /// PERMISSIVE parse: instead of failing the whole input on a
  /// malformed row, the row is quarantined — skipped, counted and
  /// reported with its line number — and parsing continues. Feeds the
  /// ingest quarantine path (DESIGN.md §12); pair with `--strict` in
  /// the CLI for the fail-fast behaviour of `Parse`.
  [[nodiscard]] PermissiveDsv ParsePermissive(
      std::string_view contents) const;

  /// Reads and parses the file at `path`. Errors are prefixed with the
  /// path so they survive propagation up the stack.
  [[nodiscard]] Result<std::vector<std::vector<std::string>>> ReadFile(
      const std::string& path) const;

 private:
  char delimiter_;
};

// ReadFileToString / WriteStringToFile moved to util/fs.h (re-exported by
// the include above); WriteStringToFile is now atomic.

}  // namespace storypivot

#endif  // STORYPIVOT_UTIL_CSV_H_
