#include "core/aligner.h"

#include <algorithm>
#include <limits>

#include "sketch/band_keys.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace storypivot {
namespace {

uint64_t MemberKey(SourceId source, StoryId story) {
  return (static_cast<uint64_t>(source) << 48) ^ story;
}

/// Union-find over story node indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

struct StoryNode {
  SourceId source = kInvalidSourceId;
  StoryId story = kInvalidStoryId;
  const Story* ptr = nullptr;
};

/// Below this many nodes the parallel fan-out costs more than it saves.
constexpr size_t kMinParallelNodes = 64;

/// Chunks-per-thread for pair scoring. Row i of the triangular all-pairs
/// loop scores n - i - 1 pairs, so equal-row chunks are imbalanced;
/// over-decomposing lets the shared queue even the load out.
constexpr size_t kChunksPerThread = 8;

}  // namespace

size_t AlignmentResult::IndexOfMember(SourceId source, StoryId id) const {
  auto it = member_index.find(MemberKey(source, id));
  return it == member_index.end() ? std::numeric_limits<size_t>::max()
                                  : it->second;
}

double StoryAligner::StoryPairScore(const Story& a, const Story& b) const {
  double affinity = SimilarityModel::TemporalAffinity(
      a.start_time(), a.end_time(), b.start_time(), b.end_time(),
      kTemporalTolerance);
  if (affinity <= 0.0) return 0.0;
  return affinity * model_->StorySimilarity(a, b);
}

double StoryAligner::StoryPairScore(const Story& a, double a_norm,
                                    const Story& b, double b_norm,
                                    const IdfTable& idf) const {
  double affinity = SimilarityModel::TemporalAffinity(
      a.start_time(), a.end_time(), b.start_time(), b.end_time(),
      kTemporalTolerance);
  if (affinity <= 0.0) return 0.0;
  return affinity * model_->StorySimilarity(a, a_norm, b, b_norm, idf);
}

AlignmentResult StoryAligner::Align(
    const std::vector<const StorySet*>& partitions, const SnippetStore& store,
    StoryId* next_story_id, ThreadPool* pool,
    std::shared_ptr<const CounterpartGraph> graph) const {
  SP_CHECK(next_story_id != nullptr);
  AlignmentResult result;

  // Collect all story nodes.
  std::vector<StoryNode> nodes;
  for (const StorySet* partition : partitions) {
    SP_CHECK(partition != nullptr);
    for (const auto& [id, story] : partition->stories()) {
      if (story.empty()) continue;
      nodes.push_back({partition->source(), id, &story});
    }
  }
  const size_t n = nodes.size();
  UnionFind uf(n);

  // Candidate pair generation: all cross-source pairs up to
  // kLshMinStories stories, LSH over story sketches above. Either way
  // candidates of row i are the pairs (i, j) with j > i, so rows can be
  // scored independently.
  const bool lsh_mode = n > kLshMinStories;
  SP_CHECK(n <= std::numeric_limits<uint32_t>::max());
  const bool parallel =
      pool != nullptr && pool->num_threads() > 1 && n >= kMinParallelNodes;
  const size_t num_chunks =
      parallel ? pool->num_threads() * kChunksPerThread : 1;
  auto fan_out = [&](size_t count, size_t chunks, const auto& fn) {
    if (parallel) {
      pool->ParallelFor(count, chunks, fn);
    } else {
      fn(0, 0, count);
    }
  };
  // DF is frozen for the whole alignment: one IDF table, and each story's
  // keyword norm, serve every pair.
  const IdfTable idf(*model_);
  std::vector<double> keyword_norms(n);
  // LSH buckets as flat sorted runs: band b's slice of `bands` holds every
  // node's (key, node) pair, sorted, so one bucket is one run of equal
  // keys with its nodes ascending. `band_pos[b * n + i]` is node i's
  // position in that slice and `band_run_end[b * n + i]` the end of its
  // run, so the nodes after i in its run are exactly its bucket-mates
  // j > i.
  struct BandEntry {
    uint64_t key;
    uint32_t node;
    bool operator<(const BandEntry& other) const {
      return key != other.key ? key < other.key : node < other.node;
    }
  };
  std::vector<BandEntry> bands;
  std::vector<uint32_t> band_pos;
  std::vector<uint32_t> band_run_end;
  if (lsh_mode) {
    bands.resize(kLshBands * n);
    band_pos.resize(kLshBands * n);
    band_run_end.resize(kLshBands * n);
  }
  // Norms and band keys are per-node pure work: build them in parallel
  // (disjoint writes).
  fan_out(n, num_chunks, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      keyword_norms[i] = idf.SquaredNorm(nodes[i].ptr->keywords());
      if (!lsh_mode) continue;
      uint64_t keys[kLshBands];
      StoryBandKeys(nodes[i].ptr->entities(), nodes[i].ptr->keywords(), keys);
      for (size_t b = 0; b < kLshBands; ++b) {
        bands[b * n + i] = {keys[b], static_cast<uint32_t>(i)};
      }
    }
  });
  if (lsh_mode) {
    // One task per band: sort its slice, then index every node's run.
    fan_out(kLshBands, kLshBands, [&](size_t, size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        BandEntry* band = bands.data() + b * n;
        std::sort(band, band + n);
        for (size_t run = 0; run < n;) {
          size_t run_end = run + 1;
          while (run_end < n && band[run_end].key == band[run].key) {
            ++run_end;
          }
          for (size_t p = run; p < run_end; ++p) {
            band_pos[b * n + band[p].node] = static_cast<uint32_t>(p);
            band_run_end[b * n + band[p].node] =
                static_cast<uint32_t>(run_end);
          }
          run = run_end;
        }
      }
    });
  }

  // Scores every candidate pair of rows [begin, end), appending edges at
  // or above the alignment threshold to `edges` in (i, j) order.
  auto score_rows = [&](size_t begin, size_t end,
                        std::vector<std::pair<size_t, size_t>>* edges,
                        uint64_t* scored) {
    auto consider = [&](size_t i, size_t j) {
      if (nodes[i].source == nodes[j].source) return;
      ++*scored;
      if (StoryPairScore(*nodes[i].ptr, keyword_norms[i], *nodes[j].ptr,
                         keyword_norms[j], idf) >= config_.align_threshold) {
        edges->push_back({i, j});
      }
    };
    std::vector<uint32_t> candidates;
    for (size_t i = begin; i < end; ++i) {
      if (!lsh_mode) {
        for (size_t j = i + 1; j < n; ++j) consider(i, j);
        continue;
      }
      // Row i's candidates: its bucket-mates j > i in any band, ascending.
      candidates.clear();
      for (size_t b = 0; b < kLshBands; ++b) {
        const BandEntry* band = bands.data() + b * n;
        for (size_t p = band_pos[b * n + i] + 1; p < band_run_end[b * n + i];
             ++p) {
          candidates.push_back(band[p].node);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      for (uint32_t j : candidates) consider(i, j);
    }
  };

  if (parallel) {
    // Fan pair scoring out over fixed row chunks; per-chunk edge lists
    // merge in chunk order, so the union sequence — and with it the
    // entire result — matches the serial path bit for bit.
    std::vector<std::vector<std::pair<size_t, size_t>>> chunk_edges(
        std::min(num_chunks, n));
    std::vector<uint64_t> chunk_scored(chunk_edges.size(), 0);
    pool->ParallelFor(n, num_chunks,
                      [&](size_t chunk, size_t begin, size_t end) {
                        score_rows(begin, end, &chunk_edges[chunk],
                                   &chunk_scored[chunk]);
                      });
    for (size_t c = 0; c < chunk_edges.size(); ++c) {
      result.num_pairs_scored += chunk_scored[c];
      for (const auto& [i, j] : chunk_edges[c]) uf.Union(i, j);
    }
  } else {
    std::vector<std::pair<size_t, size_t>> edges;
    score_rows(0, n, &edges, &result.num_pairs_scored);
    for (const auto& [i, j] : edges) uf.Union(i, j);
  }

  // Build integrated stories from the union-find components.
  std::unordered_map<size_t, size_t> component_index;
  for (size_t i = 0; i < n; ++i) {
    size_t root = uf.Find(i);
    auto [it, inserted] =
        component_index.emplace(root, result.stories.size());
    if (inserted) {
      IntegratedStory integrated;
      integrated.id = (*next_story_id)++;
      integrated.merged.set_id(integrated.id);
      result.stories.push_back(std::move(integrated));
    }
    IntegratedStory& integrated = result.stories[it->second];
    integrated.members.push_back({nodes[i].source, nodes[i].story});
    integrated.merged.MergeFrom(*nodes[i].ptr);
    result.member_index[MemberKey(nodes[i].source, nodes[i].story)] =
        it->second;
    for (SnippetId sid : nodes[i].ptr->snippets()) {
      result.integrated_of[sid] = it->second;
    }
  }
  for (IntegratedStory& integrated : result.stories) {
    std::sort(integrated.members.begin(), integrated.members.end());
  }

  if (graph == nullptr) {
    graph = CounterpartGraph::Build(partitions, store, *model_,
                                    config_.pair_threshold, kPairTolerance,
                                    pool);
  }
  ClassifySnippetRoles(*graph, &result);
  result.graph = std::move(graph);
  return result;
}

void ClassifySnippetRoles(const CounterpartGraph& graph,
                          AlignmentResult* result) {
  result->roles.clear();
  result->counterpart.clear();
  // Group every position by its integrated story, so only edges inside
  // one integrated story count.
  const std::vector<SnippetId>& ids = graph.snippets();
  std::vector<uint32_t> group(ids.size(), CounterpartGraph::kNone);
  for (size_t p = 0; p < ids.size(); ++p) {
    auto it = result->integrated_of.find(ids[p]);
    if (it != result->integrated_of.end()) {
      group[p] = static_cast<uint32_t>(it->second);
    }
  }
  const std::vector<uint32_t> best = graph.BestCounterparts(&group);
  result->roles.reserve(ids.size());
  for (size_t p = 0; p < ids.size(); ++p) {
    if (group[p] == CounterpartGraph::kNone) continue;
    if (best[p] == CounterpartGraph::kNone) {
      result->roles.emplace(ids[p], SnippetRole::kEnriching);
    } else {
      result->roles.emplace(ids[p], SnippetRole::kAligning);
      result->counterpart.emplace(ids[p], ids[best[p]]);
    }
  }
}

void ClassifyIntegratedStory(
    const SimilarityModel& model, const AlignmentConfig& config,
    const SnippetStore& store, const IntegratedStory& integrated,
    std::unordered_map<SnippetId, SnippetRole>* roles,
    std::unordered_map<SnippetId, SnippetId>* counterpart) {
  // A snippet is aligning when a counterpart from another source exists
  // inside the same integrated story, within kPairTolerance and above
  // pair_threshold. Snippets are walked in time order so only a bounded
  // window of predecessors is compared.
  struct TimedSnippet {
    Timestamp ts;
    const Snippet* snippet;
  };
  std::vector<TimedSnippet> members;
  members.reserve(integrated.merged.size());
  for (SnippetId sid : integrated.merged.snippets()) {
    const Snippet* s = store.Find(sid);
    SP_CHECK(s != nullptr);
    members.push_back({s->timestamp, s});
  }
  // (timestamp, id) order: equal timestamps must not be permuted, since
  // the first of two equal-score counterparts wins.
  std::sort(members.begin(), members.end(),
            [](const TimedSnippet& a, const TimedSnippet& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.snippet->id < b.snippet->id;
            });
  std::unordered_map<SnippetId, double> best_pair_score;
  for (size_t i = 0; i < members.size(); ++i) {
    const Snippet& a = *members[i].snippet;
    for (size_t j = i + 1; j < members.size(); ++j) {
      const Snippet& b = *members[j].snippet;
      if (b.timestamp - a.timestamp > kPairTolerance) break;
      if (a.source == b.source) continue;
      double s = model.SnippetSimilarity(a, b);
      if (s < config.pair_threshold) continue;
      auto update = [&](const Snippet& x, const Snippet& y) {
        auto [it, inserted] = best_pair_score.emplace(x.id, s);
        if (inserted || s > it->second) {
          it->second = s;
          (*counterpart)[x.id] = y.id;
        }
      };
      update(a, b);
      update(b, a);
    }
  }
  for (const TimedSnippet& member : members) {
    SnippetId sid = member.snippet->id;
    (*roles)[sid] = counterpart->contains(sid) ? SnippetRole::kAligning
                                               : SnippetRole::kEnriching;
  }
}

}  // namespace storypivot
