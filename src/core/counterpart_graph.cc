#include "core/counterpart_graph.h"

#include <algorithm>
#include <span>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace storypivot {
namespace {

/// At most this many rows per chunk, so each chunk's vector-growth slack
/// stays small even when one thread builds every chunk.
constexpr size_t kRowsPerChunk = 256;

/// Chunks-per-thread floor, as in the aligner's pair scoring: a shared
/// queue evens out chunks of unequal cost.
constexpr size_t kChunksPerThread = 8;

/// Term -> ascending positions of the snippets whose `field` holds it,
/// in one flat array.
class Postings {
 public:
  Postings(const std::vector<const Snippet*>& snippets,
           text::TermVector Snippet::*field) {
    text::TermId max_term = 0;
    for (const Snippet* s : snippets) {
      for (const auto& [term, value] : (s->*field).entries()) {
        max_term = std::max(max_term, term);
      }
    }
    begin_.assign(static_cast<size_t>(max_term) + 2, 0);
    for (const Snippet* s : snippets) {
      for (const auto& [term, value] : (s->*field).entries()) {
        ++begin_[term + 1];
      }
    }
    for (size_t t = 1; t < begin_.size(); ++t) begin_[t] += begin_[t - 1];
    positions_.resize(begin_.back());
    std::vector<uint32_t> fill(begin_.begin(), begin_.end() - 1);
    for (size_t p = 0; p < snippets.size(); ++p) {
      for (const auto& [term, value] : (snippets[p]->*field).entries()) {
        positions_[fill[term]++] = static_cast<uint32_t>(p);
      }
    }
  }

  std::span<const uint32_t> Of(text::TermId term) const {
    return {positions_.data() + begin_[term],
            positions_.data() + begin_[term + 1]};
  }

 private:
  std::vector<uint32_t> begin_;  // Indexed by term, plus one end.
  std::vector<uint32_t> positions_;
};

}  // namespace

std::shared_ptr<const CounterpartGraph> CounterpartGraph::Build(
    const std::vector<const StorySet*>& partitions, const SnippetStore& store,
    const SimilarityModel& model, double pair_threshold,
    Timestamp pair_tolerance, ThreadPool* pool) {
  SP_CHECK(pair_threshold > 0.0);
  std::shared_ptr<CounterpartGraph> graph(new CounterpartGraph());

  // Every snippet, in (timestamp, id) order.
  std::vector<std::pair<Timestamp, SnippetId>> order;
  for (const StorySet* partition : partitions) {
    SP_CHECK(partition != nullptr);
    partition->snippet_times().ForEach(
        [&order](Timestamp ts, SnippetId sid) { order.push_back({ts, sid}); });
  }
  std::sort(order.begin(), order.end());
  SP_CHECK(order.size() < kNone);
  const size_t n = order.size();
  if (n == 0) return graph;

  // What the rows read, by position. Keyword weights (1 + ln tf)·idf
  // come from one IDF table, parallel to each snippet's keyword entries,
  // with the squared norm IdfTable::SquaredNorm would sum.
  const IdfTable idf(model);
  std::vector<const Snippet*> snippets(n);
  std::vector<Timestamp> ts(n);
  std::vector<SourceId> source(n);
  std::vector<uint32_t> weight_begin(n + 1, 0);
  std::vector<double> weights;
  std::vector<double> keyword_norm(n);
  graph->ids_.reserve(n);
  size_t num_weights = 0;
  for (size_t p = 0; p < n; ++p) {
    snippets[p] = store.Find(order[p].second);
    SP_CHECK(snippets[p] != nullptr);
    num_weights += snippets[p]->keywords.size();
  }
  SP_CHECK(num_weights < kNone);
  weights.reserve(num_weights);
  for (size_t p = 0; p < n; ++p) {
    const Snippet* snippet = snippets[p];
    graph->ids_.push_back(snippet->id);
    ts[p] = snippet->timestamp;
    source[p] = snippet->source;
    double norm = 0.0;
    for (const auto& [term, count] : snippet->keywords.entries()) {
      const double w = idf.Weight(term, count);
      weights.push_back(w);
      norm += w * w;
    }
    keyword_norm[p] = norm;
    weight_begin[p + 1] = static_cast<uint32_t>(weights.size());
  }
  std::vector<std::pair<Timestamp, SnippetId>>().swap(order);
  const Postings entity_postings(snippets, &Snippet::entities);
  const Postings keyword_postings(snippets, &Snippet::keywords);

  // SnippetSimilarity, with IdfCosine's dot product over cached weights.
  auto score = [&](size_t i, size_t j) {
    const Snippet& a = *snippets[i];
    const Snippet& b = *snippets[j];
    const double entity_sim = a.entities.WeightedJaccard(b.entities);
    const auto& ka = a.keywords.entries();
    const auto& kb = b.keywords.entries();
    const double* wa = weights.data() + weight_begin[i];
    const double* wb = weights.data() + weight_begin[j];
    double dot = 0.0;
    size_t x = 0, y = 0;
    while (x < ka.size() && y < kb.size()) {
      if (ka[x].first < kb[y].first) {
        ++x;
      } else if (kb[y].first < ka[x].first) {
        ++y;
      } else {
        dot += wa[x++] * wb[y++];
      }
    }
    const double keyword_sim =
        CosineFromNorms(dot, keyword_norm[i], keyword_norm[j]);
    return kEntityWeight * entity_sim + kKeywordWeight * keyword_sim;
  };

  size_t num_chunks = (n + kRowsPerChunk - 1) / kRowsPerChunk;
  if (pool != nullptr) {
    num_chunks = std::max(num_chunks, pool->num_threads() * kChunksPerThread);
  }
  num_chunks = std::min(num_chunks, n);
  std::vector<Chunk> chunks(num_chunks);
  std::vector<uint64_t> chunk_scored(num_chunks, 0);
  auto build_rows = [&](size_t c, size_t begin, size_t end) {
    Chunk& chunk = chunks[c];
    chunk.begin = static_cast<uint32_t>(begin);
    chunk.row_end.reserve(end - begin);
    // Every candidate of these rows lies in (begin, hi).
    size_t hi = end;
    while (hi < n && ts[hi] - ts[end - 1] <= pair_tolerance) ++hi;
    std::vector<uint32_t> seen(hi - begin, kNone);
    std::vector<uint32_t> candidates;
    uint64_t scored = 0;
    for (size_t i = begin; i < end; ++i) {
      // Later cross-source snippets in the window sharing a term with i.
      candidates.clear();
      auto collect = [&](const text::TermVector& terms,
                         const Postings& postings) {
        for (const auto& [term, value] : terms.entries()) {
          std::span<const uint32_t> list = postings.Of(term);
          for (auto it = std::upper_bound(list.begin(), list.end(), i);
               it != list.end(); ++it) {
            const uint32_t j = *it;
            if (ts[j] - ts[i] > pair_tolerance) break;
            if (seen[j - begin] == i) continue;
            seen[j - begin] = static_cast<uint32_t>(i);
            if (source[j] != source[i]) candidates.push_back(j);
          }
        }
      };
      collect(snippets[i]->entities, entity_postings);
      collect(snippets[i]->keywords, keyword_postings);
      std::sort(candidates.begin(), candidates.end());
      scored += candidates.size();
      for (uint32_t j : candidates) {
        const double s = score(i, j);
        if (s < pair_threshold) continue;
        chunk.col.push_back(j);
        chunk.score.push_back(s);
      }
      chunk.row_end.push_back(static_cast<uint32_t>(chunk.col.size()));
    }
    chunk.col.shrink_to_fit();
    chunk.score.shrink_to_fit();
    chunk_scored[c] = scored;
    model.AddComparisons(scored);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, num_chunks, build_rows);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) {
      build_rows(c, c * n / num_chunks, (c + 1) * n / num_chunks);
    }
  }
  graph->chunks_ = std::move(chunks);
  for (uint64_t scored : chunk_scored) graph->num_scored_ += scored;
  return graph;
}

size_t CounterpartGraph::num_edges() const {
  size_t edges = 0;
  for (const Chunk& chunk : chunks_) edges += chunk.col.size();
  return edges;
}

std::vector<uint32_t> CounterpartGraph::BestCounterparts(
    const std::vector<uint32_t>* group) const {
  SP_CHECK(group == nullptr || group->size() == ids_.size());
  std::vector<uint32_t> best(ids_.size(), kNone);
  std::vector<double> best_score(ids_.size(), 0.0);
  auto offer = [&](uint32_t x, uint32_t y, double s) {
    if (best[x] == kNone || s > best_score[x] ||
        (s == best_score[x] && y < best[x])) {
      best[x] = y;
      best_score[x] = s;
    }
  };
  ForEachEdge([&](uint32_t i, uint32_t j, double s) {
    if (group != nullptr &&
        ((*group)[i] == kNone || (*group)[i] != (*group)[j])) {
      return;
    }
    offer(i, j, s);
    offer(j, i, s);
  });
  return best;
}

}  // namespace storypivot
