#ifndef STORYPIVOT_STORAGE_TEMPORAL_INDEX_H_
#define STORYPIVOT_STORAGE_TEMPORAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cow/cow_box.h"
#include "model/ids.h"
#include "model/time.h"

namespace storypivot {

/// An ordered index of snippet ids by timestamp, supporting out-of-order
/// insertion, deletion, and the window scans story identification reads
/// its candidates from (§2.2, Fig. 2): [t-w, t+w] in temporal mode, the
/// whole time axis in complete mode.
///
/// Backed by sorted fixed-capacity chunks (CowBox'd runs) in a CowBox'd
/// vector spine, so the index is copy-on-write: copying it is one
/// `shared_ptr` bump, and the first mutation after a copy clones the
/// spine's chunk pointers plus one chunk (at most kMaxChunk entries)
/// instead of the whole index (DESIGN.md §15). Arrivals near the end of
/// the time axis stay amortised cheap, and window scans stay sequential
/// runs.
class TemporalIndex {
 public:
  using Entry = std::pair<Timestamp, SnippetId>;

  TemporalIndex() = default;

  // O(1) structural share (chunks + spine are copy-on-write).
  TemporalIndex(const TemporalIndex&) = default;
  TemporalIndex& operator=(const TemporalIndex&) = default;
  TemporalIndex(TemporalIndex&&) noexcept = default;
  TemporalIndex& operator=(TemporalIndex&&) noexcept = default;

  /// Inserts an (timestamp, id) pair. Duplicate ids are not checked.
  void Insert(Timestamp ts, SnippetId id);

  /// Removes the pair; returns false if not present.
  bool Erase(Timestamp ts, SnippetId id);

  /// Calls `fn` for every entry with lo <= timestamp <= hi, in time order.
  void ForEachInWindow(Timestamp lo, Timestamp hi,
                       const std::function<void(Timestamp, SnippetId)>& fn)
      const;

  /// Calls `fn` for every entry, in time order.
  void ForEach(const std::function<void(Timestamp, SnippetId)>& fn) const;

  /// Returns the ids in [lo, hi], in (timestamp, id) order. The window
  /// over the whole Timestamp range lists exactly ForEach's entries.
  std::vector<SnippetId> IdsInWindow(Timestamp lo, Timestamp hi) const;

  /// All entries in time order, materialized into a flat vector. O(n) —
  /// prefer ForEach / ForEachInWindow on hot paths.
  std::vector<Entry> entries() const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Earliest / latest timestamps; undefined when empty.
  Timestamp min_time() const;
  Timestamp max_time() const;

 private:
  using Chunk = cow::CowBox<std::vector<Entry>>;

  /// Chunk capacity before a split. A split inserts a chunk into the
  /// spine (O(#chunks) pointer moves) but happens only every ~kMaxChunk/2
  /// inserts per run.
  static constexpr size_t kMaxChunk = 512;

  /// Index of the chunk that owns `entry` (first chunk whose last entry
  /// is >= entry; the last chunk when entry sorts past everything).
  /// Precondition: not empty.
  size_t ChunkFor(const Entry& entry) const;

  /// Index of the first chunk whose last timestamp is >= lo (== number
  /// of chunks when none).
  size_t FirstChunkNotBefore(Timestamp lo) const;

  cow::CowBox<std::vector<Chunk>> chunks_;  // Sorted, non-overlapping runs.
  size_t size_ = 0;
};

}  // namespace storypivot

#endif  // STORYPIVOT_STORAGE_TEMPORAL_INDEX_H_
