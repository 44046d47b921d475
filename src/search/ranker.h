#ifndef STORYPIVOT_SEARCH_RANKER_H_
#define STORYPIVOT_SEARCH_RANKER_H_

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "model/ids.h"
#include "model/time.h"
#include "search/postings_index.h"
#include "search/query_pipeline.h"
#include "search/story_view.h"
#include "util/status.h"

namespace storypivot::search {

/// Okapi BM25 parameters (the standard defaults): term-frequency
/// saturation k1 and length normalisation b.
inline constexpr double kBm25K1 = 1.2;
inline constexpr double kBm25B = 0.75;

/// How multi-term queries combine.
enum class MatchMode : uint8_t {
  /// Disjunctive: a story matches if it contains any query term; terms it
  /// lacks simply contribute no score.
  kAny,
  /// Conjunctive: a story must contain every query term (anywhere among
  /// its snippets, within the time filter when one is set).
  kAll,
};

struct SearchOptions {
  /// Ranked results returned (the heap bound — overview cards are only
  /// materialized by callers for these k).
  size_t k = 10;
  MatchMode mode = MatchMode::kAny;
  /// When set, only snippets with from <= timestamp <= to contribute
  /// (inclusive bounds, matching TemporalIndex window semantics).
  bool filter_time = false;
  Timestamp from = 0;
  Timestamp to = 0;
};

/// One ranked story.
struct StoryHit {
  SourceId source = kInvalidSourceId;
  StoryId story = kInvalidStoryId;
  double score = 0.0;
  /// Distinct query terms the story matched.
  uint32_t matched_terms = 0;

  bool operator==(const StoryHit& other) const = default;
};

/// Ranks the stories matching `query` by story-level BM25, returning the
/// top k (score descending, ties by ascending story id — story ids are
/// engine-unique, so the order is total and deterministic).
///
/// Scoring model (DESIGN.md §11): the ranked document is the story;
/// tf(t, S) sums the term frequencies of S's member snippets (exact —
/// annotation weights are small integers), the story length dl(S) is the
/// sum of S's aggregate entity+keyword weights, and idf comes from
/// snippet-level document frequencies (incrementally maintained, stable
/// under story merges/splits). Evaluation is term-at-a-time over the
/// postings lists with a MaxScore-style bound: per-term contributions
/// are capped by idf*(k1+1) (tf saturation), so once the k-th best
/// accumulated score exceeds the summed bounds of the unprocessed terms,
/// stories not yet seen are provably outside the top k and are never
/// admitted — no per-story state is materialized for them.
///
/// The corpus is a view: CorpusView(engine) for a live engine
/// (SearchEngine), the frozen partitions for a snapshot (ReadSnapshot) —
/// one kernel, so the two are bit-identical on equal state.
[[nodiscard]] std::vector<StoryHit> RankStories(
    const PostingsIndex& index, const StoryCorpus& corpus,
    const ParsedQuery& query, const SearchOptions& options = {});

/// Validates a SearchOptions before evaluation. Today's single rule: an
/// inverted time window (`filter_time && from > to`) is rejected with
/// kInvalidArgument — the inclusive [from, to] filter would match
/// nothing, and silently returning an empty result is indistinguishable
/// from "no stories in range" (the same contract TemporalIndex windows
/// follow). Callers surfacing user input (CLI, serve) must check this
/// before ranking.
[[nodiscard]] Status ValidateSearchOptions(const SearchOptions& options);

/// Reference implementation without the index: scans every story of
/// every partition (and the snippet store, for document frequencies and
/// time filtering). Bit-identical results to RankStories — the
/// equivalence tests and the bench_search baseline rely on it.
[[nodiscard]] std::vector<StoryHit> RankStoriesScan(
    const StoryPivotEngine& engine, const ParsedQuery& query,
    const SearchOptions& options = {});

}  // namespace storypivot::search

#endif  // STORYPIVOT_SEARCH_RANKER_H_
