#ifndef STORYPIVOT_CORE_COUNTERPART_GRAPH_H_
#define STORYPIVOT_CORE_COUNTERPART_GRAPH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/similarity.h"
#include "core/story_set.h"
#include "model/ids.h"
#include "model/time.h"
#include "storage/snippet_store.h"

namespace storypivot {

class ThreadPool;

/// The snippet counterpart relation of §2.3 over one snippet set: every
/// pair of snippets from different sources, at most `pair_tolerance`
/// apart, whose SnippetSimilarity reaches `pair_threshold`. Align()
/// derives snippet roles from it and Refine() its conflicts; one graph
/// serves both for as long as the snippet set and the document
/// frequencies stay unchanged (DESIGN.md §4.3-4.4).
///
/// The graph is exact. SnippetSimilarity is exactly 0 for two snippets
/// that share no entity and no keyword, so with a positive threshold the
/// candidates drawn from shared-term postings include every edge, and
/// each edge's score is bit-identical to SnippetSimilarity.
class CounterpartGraph {
 public:
  /// No position: a missing counterpart, or a position in no group.
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  /// Builds the graph over every snippet of `partitions`. Row chunks are
  /// scored on `pool` (inline when null); the graph is the same for every
  /// thread count. Adds the number of scored candidates to
  /// `model.num_comparisons()`. Requires `pair_threshold > 0`.
  static std::shared_ptr<const CounterpartGraph> Build(
      const std::vector<const StorySet*>& partitions,
      const SnippetStore& store, const SimilarityModel& model,
      double pair_threshold, Timestamp pair_tolerance, ThreadPool* pool);

  /// Every snippet in (timestamp, id) order. Edges join positions in
  /// this order.
  const std::vector<SnippetId>& snippets() const { return ids_; }

  size_t num_edges() const;

  /// Candidate pairs the build scored.
  uint64_t num_scored() const { return num_scored_; }

  /// The best counterpart of every position, or kNone: the partner with
  /// the highest score, ties going to the lowest position. That is the
  /// partner a scan in position order keeps when it replaces its pick
  /// only on a strictly higher score, so the reduction needs no order.
  /// With `group`, only edges inside one group count, and kNone marks a
  /// position that belongs to none.
  std::vector<uint32_t> BestCounterparts(
      const std::vector<uint32_t>* group = nullptr) const;

  /// Calls `fn(i, j, score)` once per edge, with positions i < j.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (const Chunk& chunk : chunks_) {
      uint32_t k = 0;
      for (uint32_t r = 0; r < chunk.row_end.size(); ++r) {
        for (; k < chunk.row_end[r]; ++k) {
          fn(chunk.begin + r, chunk.col[k], chunk.score[k]);
        }
      }
    }
  }

 private:
  /// The edges of the rows [begin, begin + row_end.size()), each stored
  /// once, in the row of its lower position. Row `begin + r` owns
  /// [row_end[r - 1], row_end[r]) of `col` and `score`.
  struct Chunk {
    uint32_t begin = 0;
    std::vector<uint32_t> row_end;
    std::vector<uint32_t> col;
    std::vector<double> score;
  };

  CounterpartGraph() = default;

  std::vector<SnippetId> ids_;
  std::vector<Chunk> chunks_;
  uint64_t num_scored_ = 0;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_COUNTERPART_GRAPH_H_
