#include "persist/wal.h"

#include <algorithm>
#include <unordered_set>

#include "util/failpoint.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace storypivot::persist {
namespace {

/// Frame head: u32 payload length + u32 crc + u64 lsn.
constexpr size_t kFrameHeadBytes = 16;
constexpr const char kSegmentPrefix[] = "wal-";
constexpr const char kSegmentSuffix[] = ".log";

/// Process-global registry of WAL directories with a live WriteAheadLog:
/// two logs appending to one directory would interleave frames and
/// corrupt both op streams, so a second Open of a claimed directory is
/// rejected up front — e.g. two DurableEngines opened on one data dir.
/// The mutex is a leaf taken for map lookups only; it is acquired while
/// the owning engine's serial role is held (Open/Close run inside it).
// lockcheck: name=wal.registry_mu after=DurableEngine.writer_
Mutex registry_mu;

std::unordered_set<std::string>* RegisteredDirs() SP_REQUIRES(registry_mu) {
  // Leaked singleton: WAL objects may be destroyed during static
  // teardown, after a function-local static set would already be gone.
  static auto* dirs = new std::unordered_set<std::string>();
  return dirs;
}

[[nodiscard]] Status RegisterWalDir(const std::string& dir) {
  MutexLock lock(registry_mu);
  if (!RegisteredDirs()->insert(dir).second) {
    return Status::FailedPrecondition(
        "WAL directory already open in this process: " + dir);
  }
  return Status::OK();
}

void ReleaseWalDir(const std::string& dir) {
  MutexLock lock(registry_mu);
  RegisteredDirs()->erase(dir);
}

uint32_t ReadLE32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t ReadLE64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void AppendLE32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendLE64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

}  // namespace

std::string WriteAheadLog::SegmentName(uint64_t start_lsn) {
  return StrFormat("%s%020llu%s", kSegmentPrefix,
                   static_cast<unsigned long long>(start_lsn),
                   kSegmentSuffix);
}

Result<uint64_t> WriteAheadLog::ParseSegmentName(const std::string& name) {
  const size_t prefix = sizeof(kSegmentPrefix) - 1;
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix || name.substr(0, prefix) != kSegmentPrefix ||
      name.substr(name.size() - suffix) != kSegmentSuffix) {
    return Status::InvalidArgument("not a WAL segment name: " + name);
  }
  std::string_view digits(name.data() + prefix,
                          name.size() - prefix - suffix);
  int64_t lsn = 0;
  if (!ParseInt64(digits, &lsn) || lsn < 0) {
    return Status::InvalidArgument("bad WAL segment number: " + name);
  }
  return static_cast<uint64_t>(lsn);
}

Result<std::vector<uint64_t>> WriteAheadLog::ListSegments(
    const std::string& dir) {
  if (!FileExists(dir)) return std::vector<uint64_t>{};
  ASSIGN_OR_RETURN(std::vector<std::string> names, ListDirectory(dir));
  std::vector<uint64_t> starts;
  for (const std::string& name : names) {
    Result<uint64_t> start = ParseSegmentName(name);
    if (start.ok()) starts.push_back(start.value());
  }
  std::sort(starts.begin(), starts.end());
  return starts;
}

Result<SegmentScan> WriteAheadLog::ScanSegment(std::string_view contents,
                                               uint64_t start_lsn) {
  SegmentScan scan;
  uint64_t expected_lsn = start_lsn;
  size_t pos = 0;
  while (pos < contents.size()) {
    const size_t left = contents.size() - pos;
    if (left < kFrameHeadBytes) {
      scan.torn_tail = true;
      break;
    }
    const char* head = contents.data() + pos;
    const uint32_t payload_len = ReadLE32(head);
    const uint32_t stored_crc = ReadLE32(head + 4);
    if (left - kFrameHeadBytes < payload_len) {
      scan.torn_tail = true;
      break;
    }
    // The frame is complete: from here on, every mismatch is corruption,
    // not a torn write, and must surface as a hard error (silently
    // truncating would drop acknowledged operations).
    std::string_view checked(head + 8, payload_len + 8);  // lsn + payload.
    if (Crc32(checked) != stored_crc) {
      return Status::IoError(StrFormat(
          "WAL corruption: CRC mismatch in record at byte %zu (lsn %llu "
          "expected)",
          pos, static_cast<unsigned long long>(expected_lsn)));
    }
    const uint64_t lsn = ReadLE64(head + 8);
    if (lsn != expected_lsn) {
      return Status::IoError(StrFormat(
          "WAL corruption: lsn %llu at byte %zu, expected %llu",
          static_cast<unsigned long long>(lsn), pos,
          static_cast<unsigned long long>(expected_lsn)));
    }
    WalRecord record;
    record.lsn = lsn;
    record.payload.assign(head + kFrameHeadBytes, payload_len);
    scan.records.push_back(std::move(record));
    ++expected_lsn;
    pos += kFrameHeadBytes + payload_len;
    scan.valid_bytes = pos;
  }
  return scan;
}

Result<SegmentScan> WriteAheadLog::ScanSegmentFile(const std::string& dir,
                                                   uint64_t start_lsn) {
  ASSIGN_OR_RETURN(std::string contents,
                   ReadFileToString(dir + "/" + SegmentName(start_lsn)));
  return ScanSegment(contents, start_lsn);
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, const WalOptions& options, uint64_t next_lsn) {
  RETURN_IF_ERROR(CreateDirectories(dir));
  RETURN_IF_ERROR(RegisterWalDir(dir));
  std::unique_ptr<WriteAheadLog> log(
      new WriteAheadLog(dir, options, next_lsn));
  // From here the claim travels with the object: any early return
  // destroys `log`, whose destructor releases the registration.
  log->registered_ = true;
  ASSIGN_OR_RETURN(std::vector<uint64_t> segments, ListSegments(dir));
  // Continue the newest segment when it is the one the caller's replay
  // ended in; otherwise start a fresh segment at next_lsn.
  uint64_t start = segments.empty() ? next_lsn : segments.back();
  if (start > next_lsn) {
    return Status::FailedPrecondition(StrFormat(
        "WAL segment %s starts past next lsn %llu",
        SegmentName(start).c_str(),
        static_cast<unsigned long long>(next_lsn)));
  }
  // The factory IS the serial section: no other thread can hold a
  // reference to `log` before Open returns it.
  log->writer_.AssertInSection();
  RETURN_IF_ERROR(log->OpenSegment(start));
  return log;
}

Status WriteAheadLog::OpenSegment(uint64_t start_lsn) {
  return active_.Open(dir_ + "/" + SegmentName(start_lsn));
}

Result<uint64_t> WriteAheadLog::Append(std::string_view payload) {
  writer_.AssertInSection();  // Single-writer serial section.
  if (!active_.is_open()) {
    return Status::FailedPrecondition("WAL is closed");
  }
  const uint64_t lsn = next_lsn_;
  std::string frame;
  frame.reserve(kFrameHeadBytes + payload.size());
  AppendLE32(&frame, static_cast<uint32_t>(payload.size()));
  AppendLE32(&frame, 0);  // CRC placeholder.
  AppendLE64(&frame, lsn);
  frame.append(payload);
  const uint32_t crc = Crc32(std::string_view(frame).substr(8));
  frame[4] = static_cast<char>(crc & 0xFF);
  frame[5] = static_cast<char>((crc >> 8) & 0xFF);
  frame[6] = static_cast<char>((crc >> 16) & 0xFF);
  frame[7] = static_cast<char>((crc >> 24) & 0xFF);

  SP_FAILPOINT("wal.append");
  const uint64_t pre_size = active_.size();
  // Transient write failures are retried; each re-attempt first rewinds
  // the partial bytes the failed one left, so a retry can never leave a
  // torn frame mid-segment (which would masquerade as a torn TAIL and
  // silently hide every later record from recovery).
  // Each lambda is a separate function to the thread-safety analysis,
  // so it re-asserts the role the enclosing Append already holds.
  Status appended = retry_.Run(
      "WAL append",
      [&] {
        writer_.AssertInSection();
        return active_.Append(frame);
      },
      [&] {
        writer_.AssertInSection();
        return active_.Rewind();
      });
  bool sync_now = false;
  switch (options_.fsync) {
    case FsyncPolicy::kEveryRecord:
      sync_now = true;
      break;
    case FsyncPolicy::kEveryN:
      sync_now = unsynced_records_ + 1 >= options_.fsync_every_n;
      break;
    case FsyncPolicy::kOnRotate:
      break;
  }
  if (appended.ok() && sync_now) {
    appended = retry_.Run("WAL fsync", [&] {
      writer_.AssertInSection();
      return active_.Sync();
    });
  }
  if (!appended.ok()) {
    // Withdraw the record (or its torn prefix): the caller will treat
    // this op as not-logged, so the bytes must not survive into
    // recovery where they would replay an unacknowledged mutation.
    // After the rewind the log is byte-for-byte its pre-call self.
    IgnoreError(active_.TruncateTo(pre_size));
    return appended;
  }
  next_lsn_ = lsn + 1;
  unsynced_records_ = sync_now ? 0 : unsynced_records_ + 1;
  if (active_.size() >= options_.segment_bytes) {
    Status rotated = Rotate();
    if (!rotated.ok()) {
      // The record itself is durable and acknowledged; failed rotation
      // only affects FUTURE appends. Close the log so they fail fast
      // (letting the engine degrade) instead of appending to a segment
      // whose directory entry may not be durable.
      SP_LOG(kWarning) << "WAL rotation failed, closing log: "
                       << rotated.ToString();
      IgnoreError(active_.Close());
    }
  }
  return lsn;
}

Status WriteAheadLog::Sync() {
  writer_.AssertInSection();  // Single-writer serial section.
  if (!active_.is_open()) {
    return Status::FailedPrecondition("WAL is closed");
  }
  RETURN_IF_ERROR(retry_.Run("WAL fsync", [&] {
    writer_.AssertInSection();
    return active_.Sync();
  }));
  unsynced_records_ = 0;
  return Status::OK();
}

Status WriteAheadLog::Rotate() {
  writer_.AssertInSection();  // Single-writer serial section.
  if (!active_.is_open()) {
    return Status::FailedPrecondition("WAL is closed");
  }
  if (active_.size() == 0) return Status::OK();
  SP_FAILPOINT("wal.rotate");
  // Sync with retry BEFORE Close: Close's own fsync cannot be retried
  // (it closes the fd either way), so drain transients first.
  RETURN_IF_ERROR(retry_.Run("WAL pre-rotate sync", [&] {
    writer_.AssertInSection();
    return active_.Sync();
  }));
  RETURN_IF_ERROR(active_.Close());
  unsynced_records_ = 0;
  RETURN_IF_ERROR(retry_.Run("WAL segment open", [&] {
    writer_.AssertInSection();
    return OpenSegment(next_lsn_);
  }));
  // Make the new segment's directory entry durable: recovery relies on
  // the segment chain being gapless.
  return retry_.Run("WAL directory sync", [&] { return SyncDirectory(dir_); });
}

Status WriteAheadLog::DropSegmentsBelow(uint64_t lsn) {
  writer_.AssertInSection();  // Single-writer serial section.
  ASSIGN_OR_RETURN(std::vector<uint64_t> segments, ListSegments(dir_));
  // Segment i holds lsns [start_i, start_{i+1}); it is fully covered when
  // the NEXT segment starts at or below `lsn`. The active (last) segment
  // is never deleted.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1] <= lsn) {
      RETURN_IF_ERROR(RemoveFile(dir_ + "/" + SegmentName(segments[i])));
    }
  }
  return SyncDirectory(dir_);
}

Status WriteAheadLog::Close() {
  writer_.AssertInSection();  // Single-writer serial section.
  if (registered_) {
    ReleaseWalDir(dir_);
    registered_ = false;
  }
  if (!active_.is_open()) return Status::OK();
  unsynced_records_ = 0;
  return active_.Close();
}

WriteAheadLog::~WriteAheadLog() {
  if (registered_) ReleaseWalDir(dir_);
}

}  // namespace storypivot::persist
