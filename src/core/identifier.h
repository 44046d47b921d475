#ifndef STORYPIVOT_CORE_IDENTIFIER_H_
#define STORYPIVOT_CORE_IDENTIFIER_H_

#include <vector>

#include "core/similarity.h"
#include "core/story_set.h"
#include "model/snippet.h"
#include "storage/snippet_store.h"

namespace storypivot {

/// The two execution modes of story identification (Fig. 2).
enum class IdentificationMode {
  /// Compare the incoming snippet against every snippet of the source.
  kComplete,
  /// Compare only against snippets inside the sliding window [t-w, t+w].
  kTemporal,
};

/// Mode-independent identification knobs.
struct IdentifierConfig {
  /// Half-width w of the temporal window, in seconds.
  Timestamp window = 7 * kSecondsPerDay;
};

/// Incremental story identification. For every arriving snippet,
/// `Identify` either assigns it to its best-matching existing story,
/// merges stories the snippet bridges (incremental construction, §2.2),
/// or opens a new story around it.
///
/// The candidates are the partition's snippets in a window of its
/// TemporalIndex, in (timestamp, id) order. Temporal mode (Fig. 2b)
/// reads [t - w, t + w]; complete mode (Fig. 2a), the quadratic baseline
/// that is prone to over-merging evolving stories, reads the whole time
/// axis. `Identify` keeps no per-call state, so shards of a parallel
/// batch may share one identifier.
class StoryIdentifier {
 public:
  StoryIdentifier(const SimilarityModel* model, IdentificationMode mode,
                  IdentifierConfig config)
      : model_(model), mode_(mode), config_(config) {}

  StoryIdentifier(const StoryIdentifier&) = delete;
  StoryIdentifier& operator=(const StoryIdentifier&) = delete;

  /// Places `snippet` into `stories`; returns the story id it ended up in.
  StoryId Identify(const Snippet& snippet, StorySet* stories,
                   const SnippetStore& store, StoryId* next_story_id) const;

 private:
  /// Scores the candidate snippets' stories and performs the
  /// assign-or-merge-or-create step.
  StoryId PlaceWithCandidates(const Snippet& snippet,
                              const std::vector<SnippetId>& candidates,
                              StorySet* stories, const SnippetStore& store,
                              StoryId* next_story_id) const;

  const SimilarityModel* model_;
  IdentificationMode mode_;
  IdentifierConfig config_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_IDENTIFIER_H_
