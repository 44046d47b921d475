#ifndef STORYPIVOT_CORE_IDENTIFIER_H_
#define STORYPIVOT_CORE_IDENTIFIER_H_

#include <memory>
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
  /// Restrict candidates to snippets sharing at least one entity with the
  /// probe (uses the partition's inverted index).
  bool prune_with_entities = false;
};

/// Base class for incremental story identification. For every arriving
/// snippet, `Identify` either assigns it to its best-matching existing
/// story, merges stories the snippet bridges (incremental construction,
/// §2.2), or opens a new story around it.
class StoryIdentifier {
 public:
  StoryIdentifier(const SimilarityModel* model, IdentifierConfig config)
      : model_(model), config_(config) {}
  virtual ~StoryIdentifier() = default;

  StoryIdentifier(const StoryIdentifier&) = delete;
  StoryIdentifier& operator=(const StoryIdentifier&) = delete;

  /// Places `snippet` into `stories`; returns the story id it ended up in.
  virtual StoryId Identify(const Snippet& snippet, StorySet* stories,
                           const SnippetStore& store,
                           StoryId* next_story_id) = 0;

  const IdentifierConfig& config() const { return config_; }

 protected:
  /// Scores the candidate snippets' stories and performs the
  /// assign-or-merge-or-create step shared by both modes.
  StoryId PlaceWithCandidates(const Snippet& snippet,
                              const std::vector<SnippetId>& candidates,
                              StorySet* stories, const SnippetStore& store,
                              StoryId* next_story_id);

  const SimilarityModel* model_;
  IdentifierConfig config_;
};

/// Complete story identification (Fig. 2a): the baseline that compares the
/// snippet against all previously seen snippets of the source. Quadratic,
/// and prone to over-merging evolving stories.
class CompleteIdentifier : public StoryIdentifier {
 public:
  CompleteIdentifier(const SimilarityModel* model, IdentifierConfig config)
      : StoryIdentifier(model, config) {}

  StoryId Identify(const Snippet& snippet, StorySet* stories,
                   const SnippetStore& store,
                   StoryId* next_story_id) override;
};

/// Temporal story identification (Fig. 2b): compares only against
/// snippets whose timestamp lies within [t - w, t + w], optionally pruned
/// further via the entity inverted index.
class TemporalIdentifier : public StoryIdentifier {
 public:
  TemporalIdentifier(const SimilarityModel* model, IdentifierConfig config)
      : StoryIdentifier(model, config) {}

  StoryId Identify(const Snippet& snippet, StorySet* stories,
                   const SnippetStore& store,
                   StoryId* next_story_id) override;
};

/// Factory for the configured mode.
std::unique_ptr<StoryIdentifier> MakeIdentifier(IdentificationMode mode,
                                                const SimilarityModel* model,
                                                IdentifierConfig config);

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_IDENTIFIER_H_
