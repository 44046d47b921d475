#ifndef STORYPIVOT_CORE_STORY_SET_H_
#define STORYPIVOT_CORE_STORY_SET_H_

#include <vector>

#include "cow/persistent_map.h"
#include "model/ids.h"
#include "model/snippet.h"
#include "model/story.h"
#include "storage/inverted_index.h"
#include "storage/snippet_store.h"
#include "storage/temporal_index.h"

namespace storypivot {

/// The per-source story partition: the set of stories C_i identified for a
/// data source s_i (§2.1), plus the indexes story identification needs —
/// a temporal index over the source's snippets and an entity inverted
/// index for candidate pruning. Maintains the snippet -> story assignment
/// and keeps every Story's aggregates in sync through adds, removals,
/// merges and splits. Each story it creates or mutates gets the next
/// value of a partition-wide counter as its stamp (Story::stamp), which
/// the re-alignment after Refine() compares to skip unchanged stories.
///
/// All state is held in copy-on-write persistent structures, so Freeze()
/// produces an O(1) snapshot that later mutations cannot reach
/// (DESIGN.md §15). A side effect worth knowing: stories() iterates in a
/// content-deterministic order (a pure function of the id set), not
/// unordered_map's history-dependent order. Pointers returned by
/// FindStory()/CreateStory() are invalidated by any later mutation of
/// the partition, not just rehashes.
class StorySet {
 public:
  using StoryMap = cow::PersistentMap<StoryId, Story>;

  explicit StorySet(SourceId source) : source_(source) {}

  StorySet(const StorySet&) = delete;
  StorySet& operator=(const StorySet&) = delete;
  StorySet(StorySet&&) = default;
  StorySet& operator=(StorySet&&) = default;

  SourceId source() const { return source_; }

  /// Creates an empty story with the given id and returns it. The
  /// reference is valid only until the next mutation of this partition.
  Story& CreateStory(StoryId id);

  /// Adds `snippet` to story `story_id` (which must exist) and registers
  /// the snippet in the partition indexes.
  void AddSnippetToStory(const Snippet& snippet, StoryId story_id);

  /// Removes a snippet from its story and the indexes. Empty stories are
  /// deleted. Requires the snippet to be assigned.
  void RemoveSnippet(const Snippet& snippet, const SnippetStore& store);

  /// Merges all of `ids` (>= 2 stories) into the first one; the surviving
  /// story keeps the first id. Returns the surviving id.
  StoryId MergeStories(const std::vector<StoryId>& ids);

  /// Replaces `story_id` by one story per component. The first component
  /// keeps the original id, later ones get ids from `next_story_id`
  /// (incremented). `components` must exactly partition the story.
  std::vector<StoryId> SplitStory(StoryId story_id,
                                  const std::vector<std::vector<SnippetId>>&
                                      components,
                                  const SnippetStore& store,
                                  StoryId* next_story_id);

  /// Story containing `id`, or kInvalidStoryId.
  StoryId StoryOf(SnippetId id) const;

  /// Returns the story or nullptr.
  [[nodiscard]] const Story* FindStory(StoryId id) const;

  const StoryMap& stories() const { return stories_; }

  /// All snippets of the source ordered by time.
  const TemporalIndex& snippet_times() const { return snippet_times_; }

  /// Entity -> snippet candidates.
  const InvertedIndex& entity_index() const { return entity_index_; }

  /// Distinct stories having at least one snippet in [lo, hi].
  std::vector<StoryId> StoriesInWindow(Timestamp lo, Timestamp hi) const;

  /// Number of snippets assigned in this partition.
  size_t num_snippets() const { return story_of_.size(); }

  /// O(1) frozen copy sharing all state with this partition; immune to
  /// later writes (copy-on-write). Copying is still disallowed to keep
  /// accidental copies out of the ingest path — snapshot capture
  /// (serve/ReadSnapshot, DESIGN.md §15) asks for one explicitly.
  [[nodiscard]] StorySet Freeze() const;

 private:
  SourceId source_;
  StoryMap stories_;
  cow::PersistentMap<SnippetId, StoryId> story_of_;
  TemporalIndex snippet_times_;
  InvertedIndex entity_index_;
  /// The last stamp handed out. Only goes up, so a story re-created
  /// under an old id (SplitStory) never gets back a stamp it had before.
  uint64_t last_stamp_ = 0;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_STORY_SET_H_
