#ifndef STORYPIVOT_SEARCH_STORY_VIEW_H_
#define STORYPIVOT_SEARCH_STORY_VIEW_H_

#include <cstddef>
#include <vector>

#include "core/engine.h"
#include "core/story_set.h"
#include "model/ids.h"

namespace storypivot::search {

/// The exact slice of engine state ranked queries read — the
/// seam that lets the same query code run against a live engine and
/// against a frozen snapshot (serve/, DESIGN.md §14). A corpus is a
/// VIEW: it borrows the partitions it points at and is only valid while
/// they are (for a live engine, until the next mutation; for a
/// ReadSnapshot, for the snapshot's lifetime).
struct StoryCorpus {
  /// All partitions, ordered by source id (what engine.partitions()
  /// returns).
  std::vector<const StorySet*> partitions;
  /// Dense source-id -> partition directory (nullptr gaps), sized
  /// next_source — the per-posting hot-path lookup.
  std::vector<const StorySet*> partition_of;
  /// Total stories across partitions (BM25's N denominator input).
  size_t total_stories = 0;
  /// Engine-wide story id bound, sizing dense per-story directories.
  StoryId next_story = 0;

  [[nodiscard]] const StorySet* partition(SourceId source) const {
    return source < partition_of.size() ? partition_of[source] : nullptr;
  }
};

/// Builds the corpus view of a live engine. Single-writer read: callers
/// must hold the engine's serial role (DESIGN.md §13), and the view is
/// invalidated by the next mutation.
[[nodiscard]] StoryCorpus CorpusView(const StoryPivotEngine& engine);

}  // namespace storypivot::search

#endif  // STORYPIVOT_SEARCH_STORY_VIEW_H_
