#ifndef STORYPIVOT_PERSIST_WAL_H_
#define STORYPIVOT_PERSIST_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/fs.h"
#include "util/status.h"
#include "util/sync.h"

namespace storypivot::persist {

/// When the write-ahead log fsyncs (DESIGN.md §10).
enum class FsyncPolicy {
  /// fdatasync after every record: no acknowledged op is ever lost.
  kEveryRecord,
  /// fdatasync once every `fsync_every_n` records: bounds loss to the
  /// last n-1 acknowledged ops.
  kEveryN,
  /// fdatasync only at segment rotation and Close(): fastest; loss is
  /// bounded by the OS page-cache flush interval.
  kOnRotate,
};

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  /// Sync cadence for FsyncPolicy::kEveryN.
  size_t fsync_every_n = 64;
  /// Rotate to a new segment once the active one exceeds this size.
  uint64_t segment_bytes = 4ull << 20;
};

/// One decoded log record.
struct WalRecord {
  /// Log sequence number: the 0-based index of the operation in the
  /// engine's mutation history. Strictly sequential with no gaps.
  uint64_t lsn = 0;
  /// Opaque payload (an encoded engine operation; see durable_engine.cc).
  std::string payload;
};

/// Result of scanning one segment file.
struct SegmentScan {
  std::vector<WalRecord> records;
  /// Bytes of the file covered by complete, CRC-valid frames. Smaller
  /// than the file size iff the tail is torn.
  uint64_t valid_bytes = 0;
  /// True when the file ends in an incomplete frame (a crash mid-append).
  bool torn_tail = false;
};

/// A write-ahead log over a directory of segment files.
///
/// Each segment is named `wal-<start lsn, 20 digits>.log` and holds
/// frames of the form
///
///   [u32 payload length][u32 crc32][u64 lsn][payload bytes]
///
/// where the CRC covers the lsn and the payload. The frame head makes
/// two failure modes distinguishable:
///   * a frame that runs past end-of-file is a TORN TAIL — the expected
///     result of a crash mid-append — and is dropped (and truncated away
///     on reopen);
///   * a complete frame whose CRC mismatches is CORRUPTION — bytes the
///     filesystem acknowledged and later changed — and is a hard error,
///     never silently truncated.
///
/// Single-writer, like the engine it protects. The discipline is
/// machine-checked: every mutating method asserts the `writer_` serial
/// role (a phantom capability, DESIGN.md §13), so under Clang's
/// thread-safety analysis the append/rotation state cannot be touched
/// from code that has not declared itself part of the serial section.
class WriteAheadLog {
 public:
  /// Opens the log in `dir` (created if missing) for appending at
  /// `next_lsn`, continuing the newest existing segment or starting a
  /// fresh one when the directory has none. Does NOT scan existing
  /// records — recovery does that first (see ScanDir) and repairs a torn
  /// tail before handing the directory over.
  ///
  /// Registers `dir` in a process-global registry and fails with
  /// kFailedPrecondition when another live WriteAheadLog already owns
  /// it: two logs appending to one directory would interleave frames
  /// and corrupt both op streams, so opening a second DurableEngine on
  /// a live data dir is a hard error, not a latent corruption. Close()
  /// — or destruction — releases the claim.
  [[nodiscard]] static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& dir, const WalOptions& options, uint64_t next_lsn);

  /// Releases the directory claim (see Open) if Close() has not.
  ~WriteAheadLog();

  /// Appends one record, assigning it the next lsn (returned). Applies
  /// the fsync policy and rotates segments as configured.
  ///
  /// Fault contract (DESIGN.md §12): nothing is retried. A failed write
  /// or fsync WITHDRAWS the record (or its torn prefix) from the file
  /// with TruncateTo — an error return means the log is byte-for-byte
  /// what it was before the call, so an unacknowledged record can never
  /// resurface at recovery. Only a failed withdraw breaks this; the
  /// caller then reads the op's fate from next_lsn() after recovery. A
  /// rotation failure after the record is durable is NOT an append
  /// failure: the lsn is returned and the log closes itself so later
  /// appends fail fast instead of writing to a segment whose directory
  /// entry may not be durable.
  [[nodiscard]] Result<uint64_t> Append(std::string_view payload);

  /// Forces everything appended so far to disk regardless of policy.
  [[nodiscard]] Status Sync();

  /// Closes the active segment (synced) and starts a new one at the
  /// current lsn. No-op when the active segment is empty. On failure the
  /// log is closed, so later appends fail.
  [[nodiscard]] Status Rotate();

  /// Deletes every non-active segment whose records all have
  /// lsn < `lsn` — i.e. segments fully covered by a checkpoint.
  [[nodiscard]] Status DropSegmentsBelow(uint64_t lsn);

  /// Syncs and closes the active segment.
  [[nodiscard]] Status Close();

  [[nodiscard]] uint64_t next_lsn() const {
    writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return next_lsn_;
  }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  // --- Static scanning (used by recovery and tests) ---------------------

  /// Name of the segment starting at `start_lsn`.
  [[nodiscard]] static std::string SegmentName(uint64_t start_lsn);

  /// Parses a segment name; returns the start lsn or an error for
  /// non-segment files.
  [[nodiscard]] static Result<uint64_t> ParseSegmentName(
      const std::string& name);

  /// Start lsns of the segments present in `dir`, ascending. Missing
  /// directory yields an empty list.
  [[nodiscard]] static Result<std::vector<uint64_t>> ListSegments(
      const std::string& dir);

  /// Scans `contents` of the segment starting at `start_lsn`: validates
  /// framing, CRCs and lsn continuity. A torn tail stops the scan (see
  /// SegmentScan); a CRC mismatch on a complete frame or an lsn gap is a
  /// hard error.
  [[nodiscard]] static Result<SegmentScan> ScanSegment(
      std::string_view contents, uint64_t start_lsn);

  /// Reads and scans the segment file starting at `start_lsn` in `dir`.
  [[nodiscard]] static Result<SegmentScan> ScanSegmentFile(
      const std::string& dir, uint64_t start_lsn);

 private:
  WriteAheadLog(std::string dir, const WalOptions& options,
                uint64_t next_lsn)
      : dir_(std::move(dir)), options_(options), next_lsn_(next_lsn) {}

  [[nodiscard]] Status OpenSegment(uint64_t start_lsn) SP_REQUIRES(writer_);

  /// Phantom capability for the single-writer serial section. Not a
  /// lock: asserting it declares "I am the one writer" and lets the
  /// analysis reject any second code path touching the guarded state.
  // lockcheck: name=WriteAheadLog.writer_ role
  SerialSection writer_;
  /// Immutable after construction; safe to read without the role.
  std::string dir_;
  WalOptions options_;
  uint64_t next_lsn_ SP_GUARDED_BY(writer_) = 0;
  AppendFile active_ SP_GUARDED_BY(writer_);
  /// True while this object holds the process-global claim on dir_.
  /// Written only at open/close; reads race nothing (single-writer).
  bool registered_ = false;
  /// Records appended since the last sync (for FsyncPolicy::kEveryN).
  size_t unsynced_records_ SP_GUARDED_BY(writer_) = 0;
};

}  // namespace storypivot::persist

#endif  // STORYPIVOT_PERSIST_WAL_H_
