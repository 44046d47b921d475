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

/// What one Align() leaves for a later Align() over the same snippets
/// under the same DF, such as the re-alignment that ends Refine(): the
/// counterpart graph and, from a run given no previous result, each story
/// node's (source, story id, stamp) and integrated story, its band keys
/// and keyword norm, and every candidate pair the run considered, with
/// whether the story kernel ran and whether the pair was an edge. The
/// later run reuses the entries of every story whose stamp is unchanged
/// and finds and scores only the pairs that involve a changed story
/// (DESIGN.md §4.3). Only StoryAligner reads or writes it.
class AlignmentRecord {
 private:
  friend class StoryAligner;

  struct Node {
    SourceId source = kInvalidSourceId;
    /// Index of the node's integrated story in the run's result.
    uint32_t integrated = 0;
    StoryId story = kInvalidStoryId;
    uint64_t stamp = 0;
  };
  /// Candidate pair (i, j) of node indices; `flags` holds kKernel and
  /// kEdge. Eight bytes: a run has fewer than 2^30 nodes.
  struct Pair {
    uint32_t i = 0;
    uint32_t j : 30 = 0;
    uint32_t flags : 2 = 0;
  };
  /// The story kernel ran (the spans are within kTemporalTolerance), so
  /// SimilarityModel::num_comparisons() counted the pair.
  static constexpr uint8_t kKernel = 1;
  /// The pair scored at or above the alignment threshold.
  static constexpr uint8_t kEdge = 2;

  /// Which candidate generator the run used (more than kLshMinStories
  /// nodes). A later run reuses the record only with the same generator.
  bool lsh_mode = false;
  /// Empty in the record of a run that was given a previous result.
  std::vector<Node> nodes;
  /// kLshBands keys per node, node-major; empty in all-pairs mode.
  std::vector<uint64_t> band_keys;
  std::vector<double> keyword_norms;
  std::vector<Pair> pairs;
  /// The counterpart graph of the run, owned here so that the result's
  /// `graph` and `record` are two handles on one record.
  std::shared_ptr<const CounterpartGraph> graph;
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
  /// Story pairs actually scored (work indicator for the benches). A pair
  /// taken from a record counts as scored, so the count equals a fresh
  /// run's.
  uint64_t num_pairs_scored = 0;
  /// Of num_pairs_scored, the pairs of two unchanged stories whose
  /// candidate status and edge bit came from a previous result's record.
  uint64_t num_pairs_reused = 0;
  /// The snippet counterpart graph the roles came from, kept for the
  /// Refine() that follows. Align() always sets it. Valid only while the
  /// snippet set and DF are unchanged; the engine drops it at the next
  /// snippet mutation.
  std::shared_ptr<const CounterpartGraph> graph;
  /// This run's reuse record. It owns `graph`, which is a handle on it:
  /// neither outlives the other, and the engine drops both together.
  std::shared_ptr<const AlignmentRecord> record;

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
  /// count (see DESIGN.md §9). A `previous` result with a record, from
  /// an earlier Align() over the same snippets under the same DF, is taken
  /// apart: its record supplies the counterpart graph and, when both runs
  /// use the same candidate generator, the keys, norms and pair outcomes
  /// of every story whose stamp is unchanged, and an integrated story
  /// whose member stories all kept their stamps and made up one whole
  /// integrated story of `previous` takes over that story's merged view.
  /// The result's record then holds only the graph. The result equals a
  /// fresh run's either way, num_pairs_reused aside.
  AlignmentResult Align(const std::vector<const StorySet*>& partitions,
                        const SnippetStore& store, StoryId* next_story_id,
                        ThreadPool* pool = nullptr,
                        AlignmentResult previous = {}) const;

  const AlignmentConfig& config() const { return config_; }

  /// Combined story-pair score: content similarity gated by temporal
  /// affinity of the story spans. Uncached; a test oracle for the cached
  /// overload below, which is the one Align() calls.
  double StoryPairScore(const Story& a, const Story& b) const;

  /// StoryPairScore(a, b) through SimilarityModel's cached story kernel,
  /// with each story's keyword norm from `idf.SquaredNorm`: the same
  /// bits. A non-null `kernel_ran` is set to whether the spans met, so
  /// that the story kernel ran and counted a comparison.
  double StoryPairScore(const Story& a, double a_norm, const Story& b,
                        double b_norm, const IdfTable& idf,
                        bool* kernel_ran = nullptr) const;

 private:
  const SimilarityModel* model_;
  AlignmentConfig config_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_ALIGNER_H_
