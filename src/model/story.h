#ifndef STORYPIVOT_MODEL_STORY_H_
#define STORYPIVOT_MODEL_STORY_H_

#include <set>
#include <vector>

#include "model/ids.h"
#include "model/snippet.h"
#include "model/time.h"
#include "text/term_vector.h"

namespace storypivot {

/// A story: a set of semantically connected information snippets evolving
/// over time (§2). The struct maintains incremental aggregates — entity and
/// keyword histograms, the time span, and the contributing sources — so the
/// overview cards of Figs. 4-6 can be rendered and similarity against the
/// story can be computed without touching every member snippet.
class Story {
 public:
  Story() = default;
  explicit Story(StoryId id) : id_(id) {}

  StoryId id() const { return id_; }
  void set_id(StoryId id) { id_ = id; }

  /// Member snippet ids, kept sorted by (timestamp, id).
  const std::vector<SnippetId>& snippets() const { return snippets_; }

  size_t size() const { return snippets_.size(); }
  bool empty() const { return snippets_.empty(); }

  /// Sources that contributed at least one snippet.
  const std::set<SourceId>& sources() const { return sources_; }

  /// Aggregate entity histogram over all member snippets.
  const text::TermVector& entities() const { return entities_; }

  /// Aggregate keyword histogram over all member snippets.
  const text::TermVector& keywords() const { return keywords_; }

  /// Timestamp of the earliest member snippet. Undefined when empty.
  Timestamp start_time() const { return start_time_; }

  /// Timestamp of the latest member snippet. Undefined when empty.
  Timestamp end_time() const { return end_time_; }

  /// Adds a snippet and updates all aggregates. The snippet must not
  /// already be a member.
  void AddSnippet(const Snippet& snippet);

  /// Removes a snippet and updates aggregates. `snippet` must be a current
  /// member (same content as when added). Source membership and time span
  /// are recomputed lazily from `all` via RecomputeSpan when needed — to
  /// keep removal cheap the caller passes the surviving snippets.
  void RemoveSnippet(const Snippet& snippet,
                     const std::vector<const Snippet*>& survivors);

  /// True if `id` is a member (binary search over the sorted member list is
  /// not possible since the list is time-ordered; this is a linear scan and
  /// intended for small stories / tests).
  bool Contains(SnippetId id) const;

  /// Merges `other` into this story (set union of members + aggregates).
  /// The two member lists are merged in one pass, so building a story of
  /// k snippets from its parts costs O(k) per merge, not O(k^2).
  void MergeFrom(const Story& other);

  /// Content version. StorySet writes its partition's next counter value
  /// here whenever it creates or mutates the story, so within one
  /// partition an unchanged (id, stamp) means unchanged content
  /// (DESIGN.md §4.3). Copies keep it; fingerprints, checkpoints and the
  /// WAL never see it.
  uint64_t stamp() const { return stamp_; }
  void set_stamp(uint64_t stamp) { stamp_ = stamp; }

 private:
  void InsertSorted(SnippetId id, Timestamp ts);

  StoryId id_ = kInvalidStoryId;
  uint64_t stamp_ = 0;
  std::vector<SnippetId> snippets_;
  std::vector<Timestamp> snippet_times_;  // Parallel to snippets_.
  std::set<SourceId> sources_;
  text::TermVector entities_;
  text::TermVector keywords_;
  Timestamp start_time_ = 0;
  Timestamp end_time_ = 0;
};

}  // namespace storypivot

#endif  // STORYPIVOT_MODEL_STORY_H_
