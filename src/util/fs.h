#ifndef STORYPIVOT_UTIL_FS_H_
#define STORYPIVOT_UTIL_FS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace storypivot {

/// Error-checked file IO. Every write in the project goes through this
/// header (splint's `raw-file-write` rule bans std::ofstream / fopen
/// elsewhere) so that durability guarantees hold repo-wide:
///
///   * `WriteStringToFile` is ATOMIC: it writes `path.tmp`, fsyncs, then
///     renames over `path` and fsyncs the directory. Readers observe
///     either the old file or the complete new file — never a torn one.
///   * `AppendFile` is the write-ahead-log primitive: an append-only fd
///     with explicit `Sync()` so callers control the fsync policy.
///
/// All functions report failures as Status (kIoError) with the path in
/// the message; nothing is silently swallowed.

/// Reads the entire file into a string.
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

/// Atomically replaces `path` with `contents` (temp file + fsync +
/// rename + directory fsync). The temp file `path.tmp` is unlinked on
/// any failure.
[[nodiscard]] Status WriteStringToFile(const std::string& path,
                                       std::string_view contents);

/// True when `path` exists (any file type).
[[nodiscard]] bool FileExists(const std::string& path);

/// Size of a regular file in bytes.
[[nodiscard]] Result<uint64_t> FileSize(const std::string& path);

/// Deletes a file; NotFound if it does not exist.
[[nodiscard]] Status RemoveFile(const std::string& path);

/// Renames `from` to `to` (atomic within a filesystem).
[[nodiscard]] Status RenameFile(const std::string& from,
                                const std::string& to);

/// Truncates a file to `size` bytes (used by WAL recovery to drop a torn
/// tail record).
[[nodiscard]] Status TruncateFile(const std::string& path, uint64_t size);

/// Creates `path` and all missing parents (mkdir -p semantics).
[[nodiscard]] Status CreateDirectories(const std::string& path);

/// Removes an EMPTY directory (rmdir semantics); NotFound when missing.
[[nodiscard]] Status RemoveDirectory(const std::string& path);

/// Names (not paths) of the entries in `path`, sorted, excluding "." and
/// "..".
[[nodiscard]] Result<std::vector<std::string>> ListDirectory(
    const std::string& path);

/// fsyncs a directory so that renames/creates/unlinks inside it are
/// durable.
[[nodiscard]] Status SyncDirectory(const std::string& path);

/// An append-only file handle with explicit durability control — the
/// primitive under the write-ahead log. Not thread-safe; the WAL's
/// single-writer discipline matches the engine's.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens `path` for appending, creating it when absent. `size()`
  /// reflects the existing length.
  [[nodiscard]] Status Open(const std::string& path);

  /// Appends all of `data`; short writes are retried until complete.
  /// On failure `size()` is NOT advanced, so the file may hold torn
  /// bytes past `size()` — `TruncateTo(size())` drops them.
  [[nodiscard]] Status Append(std::string_view data);

  /// Truncates the file to `new_size` (<= size()) and adjusts `size()`.
  /// The WAL uses this to WITHDRAW a record whose write or fsync failed:
  /// the caller is told the append failed, so neither the record nor a
  /// torn prefix of it may survive into recovery.
  [[nodiscard]] Status TruncateTo(uint64_t new_size);

  /// fdatasyncs everything appended so far.
  [[nodiscard]] Status Sync();

  /// Syncs and closes. Safe to call twice; the destructor closes (without
  /// syncing) if the caller did not.
  [[nodiscard]] Status Close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Current file size (existing bytes + everything appended).
  [[nodiscard]] uint64_t size() const { return size_; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_UTIL_FS_H_
