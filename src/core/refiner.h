#ifndef STORYPIVOT_CORE_REFINER_H_
#define STORYPIVOT_CORE_REFINER_H_

#include <cstdint>
#include <vector>

#include "core/aligner.h"
#include "core/similarity.h"
#include "core/story_set.h"
#include "storage/snippet_store.h"

namespace storypivot {

/// What a refinement pass did.
struct RefinementStats {
  int snippets_moved = 0;
  int stories_created = 0;
  int stories_split = 0;
  uint64_t conflicts_examined = 0;
};

/// Resolves conflicts between story identification and story alignment:
/// when a snippet's cross-source counterpart lives in a *different*
/// integrated story, identification likely mis-assigned one of them
/// (Fig. 1: v14 sits in c11 although its counterpart's story aligned into
/// c'3). The refiner relocates such snippets into the same-source story of
/// the counterpart's integrated story when the similarity margin supports
/// it, propagating alignment decisions back into the per-source story
/// sets (§2.3).
class StoryRefiner {
 public:
  explicit StoryRefiner(const SimilarityModel* model) : model_(model) {}

  StoryRefiner(const StoryRefiner&) = delete;
  StoryRefiner& operator=(const StoryRefiner&) = delete;

  /// Runs one refinement pass over all partitions, using `alignment` as
  /// the evidence: each snippet's best counterpart comes from
  /// `alignment.graph`, which must be set and cover exactly the snippets
  /// of `partitions`. Mutates the per-source story sets. The alignment
  /// result becomes stale afterwards; callers re-align if they need fresh
  /// integrated stories. The graph stays valid: refinement moves snippets
  /// between stories but changes neither the snippet set nor DF.
  RefinementStats Refine(const std::vector<StorySet*>& partitions,
                         const AlignmentResult& alignment,
                         const SnippetStore& store,
                         StoryId* next_story_id) const;

  /// Splits `story_id` into its connected components (members linked by
  /// similarity within a time window) if it is no longer connected.
  /// Returns the number of additional stories created (0 when still
  /// connected).
  int SplitIfDisconnected(StorySet* partition, StoryId story_id,
                          const SnippetStore& store,
                          StoryId* next_story_id) const;

 private:
  const SimilarityModel* model_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_REFINER_H_
