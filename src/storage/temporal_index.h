#ifndef STORYPIVOT_STORAGE_TEMPORAL_INDEX_H_
#define STORYPIVOT_STORAGE_TEMPORAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cow/sorted_runs.h"
#include "model/ids.h"
#include "model/time.h"

namespace storypivot {

/// An ordered index of snippet ids by timestamp, supporting out-of-order
/// insertion, deletion, and the window scans story identification reads
/// its candidates from (§2.2, Fig. 2): [t-w, t+w] in temporal mode, the
/// whole time axis in complete mode.
///
/// Backed by cow::SortedRuns of (timestamp, id) pairs, so the index is
/// copy-on-write: copying it is one `shared_ptr` bump, and the first
/// mutation after a copy clones the spine's run pointers plus one run (at
/// most kMaxRun entries) instead of the whole index (DESIGN.md §15).
/// Arrivals near the end of the time axis stay amortised cheap, and
/// window scans stay sequential runs.
class TemporalIndex {
 public:
  using Entry = std::pair<Timestamp, SnippetId>;

  TemporalIndex() = default;

  // O(1) structural share (runs + spine are copy-on-write).
  TemporalIndex(const TemporalIndex&) = default;
  TemporalIndex& operator=(const TemporalIndex&) = default;
  TemporalIndex(TemporalIndex&&) noexcept = default;
  TemporalIndex& operator=(TemporalIndex&&) noexcept = default;

  /// Inserts an (timestamp, id) pair; a pair already present stays once.
  void Insert(Timestamp ts, SnippetId id) { entries_.Insert({ts, id}); }

  /// Removes the pair; returns false if not present.
  bool Erase(Timestamp ts, SnippetId id) { return entries_.Erase({ts, id}); }

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
  std::vector<Entry> entries() const { return entries_.Flatten(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Earliest / latest timestamps; undefined when empty.
  Timestamp min_time() const;
  Timestamp max_time() const;

 private:
  /// Run capacity before a split. A split inserts a run into the spine
  /// (O(#runs) pointer moves) but happens only every ~kMaxRun/2 inserts
  /// per run.
  static constexpr size_t kMaxRun = 512;
  using Entries = cow::SortedRuns<Entry, std::less<Entry>, kMaxRun>;

  /// Index of the first run whose last timestamp is >= lo (== number of
  /// runs when none).
  size_t FirstRunNotBefore(Timestamp lo) const;

  Entries entries_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_STORAGE_TEMPORAL_INDEX_H_
