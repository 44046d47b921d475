#ifndef STORYPIVOT_CORE_ALIGNER_H_
#define STORYPIVOT_CORE_ALIGNER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/counterpart_graph.h"
#include "core/similarity.h"
#include "core/story_set.h"
#include "model/ids.h"
#include "storage/snippet_store.h"

namespace storypivot {

class ThreadPool;

/// Temporal tolerance between story spans, in seconds. Larger than the
/// identification window ("more tolerance in the temporal alignment of
/// stories", §4.1).
inline constexpr Timestamp kTemporalTolerance = 14 * kSecondsPerDay;
/// Two snippets from different sources are counterparts only when their
/// event timestamps are within this many seconds.
inline constexpr Timestamp kPairTolerance = 3 * kSecondsPerDay;
/// Above this many stories, Align() takes its candidate story pairs from
/// story-sketch LSH instead of comparing all cross-source pairs. For small
/// inputs all-pairs is cheap and exact, and LSH recall is poor for pairs
/// whose set-Jaccard sits below its S-curve even when the blended
/// similarity clears the threshold.
inline constexpr size_t kLshMinStories = 500;

/// Thresholds of the story-alignment phase (§2.3).
struct AlignmentConfig {
  /// Two stories align when content-similarity x temporal-affinity
  /// reaches this. Alignment is transitive (union-find), so the threshold
  /// is deliberately higher than the identification assign threshold —
  /// a low value lets one mixed story chain unrelated clusters together.
  double align_threshold = 0.40;
  /// Two snippets from different sources are counterparts (the snippet
  /// "aligns" the stories) when their similarity reaches this, within
  /// kPairTolerance. Refinement searches counterparts with the same two
  /// values. Must be positive: counterpart candidates come only from
  /// snippet pairs that share a term (CounterpartGraph).
  double pair_threshold = 0.45;
};

/// The role a snippet plays inside an integrated story (§2.3): it either
/// *aligns* stories (it has a counterpart in another source) or *enriches*
/// the story (source-exclusive background material).
enum class SnippetRole { kAligning, kEnriching };

/// One integrated story C': per-source member stories plus a merged view.
struct IntegratedStory {
  StoryId id = kInvalidStoryId;
  /// The per-source stories that were aligned into this story.
  std::vector<std::pair<SourceId, StoryId>> members;
  /// Merged aggregates over all member stories (for overview rendering).
  Story merged;
};

/// Output of one alignment run.
struct AlignmentResult {
  std::vector<IntegratedStory> stories;
  /// Snippet -> index into `stories`.
  std::unordered_map<SnippetId, size_t> integrated_of;
  /// Per-snippet role classification.
  std::unordered_map<SnippetId, SnippetRole> roles;
  /// Best cross-source counterpart of each *aligning* snippet.
  std::unordered_map<SnippetId, SnippetId> counterpart;
  /// (source, story) -> index into `stories`.
  std::unordered_map<uint64_t, size_t> member_index;
  /// Story pairs actually scored (work indicator for the benches).
  uint64_t num_pairs_scored = 0;
  /// The snippet counterpart graph the roles came from, kept for the
  /// Refine() that follows. Align() always sets it. Valid only while the
  /// snippet set and DF are unchanged; the engine drops it at the next
  /// snippet mutation.
  std::shared_ptr<const CounterpartGraph> graph;

  /// Integrated story containing per-source story (source, id), or
  /// SIZE_MAX.
  size_t IndexOfMember(SourceId source, StoryId id) const;
};

/// Fills `result->roles` and `result->counterpart` for every snippet of
/// every integrated story in `result` from the counterpart graph over the
/// same snippets: a snippet is *aligning* when it has a counterpart in
/// the same integrated story, else *enriching* (§2.3). Its counterpart
/// is the best one inside that story (CounterpartGraph::BestCounterparts).
void ClassifySnippetRoles(const CounterpartGraph& graph,
                          AlignmentResult* result);

/// Classifies a single integrated story's snippets into `roles` /
/// `counterpart` by scanning its snippet pairs in (timestamp, id) order;
/// the answer equals ClassifySnippetRoles' for that story. A test oracle:
/// nothing in the engine calls it, and tests check the graph against it.
void ClassifyIntegratedStory(const SimilarityModel& model,
                             const AlignmentConfig& config,
                             const SnippetStore& store,
                             const IntegratedStory& story,
                             std::unordered_map<SnippetId, SnippetRole>* roles,
                             std::unordered_map<SnippetId, SnippetId>*
                                 counterpart);

/// Aligns the per-source story sets across sources into integrated
/// stories. Only stories of different sources align: refinement, not
/// alignment, fixes same-source mistakes. Stories that align nowhere
/// survive as singleton integrated stories ("even if a story cannot be
/// aligned ... it is still going to be present in the result set", §2.3).
class StoryAligner {
 public:
  StoryAligner(const SimilarityModel* model, AlignmentConfig config)
      : model_(model), config_(config) {}

  StoryAligner(const StoryAligner&) = delete;
  StoryAligner& operator=(const StoryAligner&) = delete;

  /// Runs alignment over `partitions`. Integrated ids are drawn from
  /// `next_story_id`. With a non-null `pool`, story-pair scoring and the
  /// counterpart graph's rows fan out across the pool; candidate pairs
  /// are enumerated in a fixed order and edges applied in that order, so
  /// the result is bit-identical to the serial path for every thread
  /// count (see DESIGN.md §9). A non-null `graph` is used instead of
  /// building one; it must cover the same snippets under the same DF.
  AlignmentResult Align(
      const std::vector<const StorySet*>& partitions,
      const SnippetStore& store, StoryId* next_story_id,
      ThreadPool* pool = nullptr,
      std::shared_ptr<const CounterpartGraph> graph = nullptr) const;

  const AlignmentConfig& config() const { return config_; }

  /// Combined story-pair score: content similarity gated by temporal
  /// affinity of the story spans. Uncached; a test oracle for the cached
  /// overload below, which is the one Align() calls.
  double StoryPairScore(const Story& a, const Story& b) const;

  /// StoryPairScore(a, b) through SimilarityModel's cached story kernel,
  /// with each story's keyword norm from `idf.SquaredNorm`: the same
  /// bits.
  double StoryPairScore(const Story& a, double a_norm, const Story& b,
                        double b_norm, const IdfTable& idf) const;

 private:
  const SimilarityModel* model_;
  AlignmentConfig config_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_ALIGNER_H_
