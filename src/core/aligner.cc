#include "core/aligner.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>

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

/// No index: a node no record entry matches (a changed node), an empty
/// table slot, a component without an integrated story yet.
constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// The changed nodes' band keys: per band, an open-addressing hash table
/// with linear probing from each key to the nodes that have it. A slot
/// holds a node and the high half of its key, and a match on that half
/// is confirmed against the full key, so a slot is eight bytes. Band
/// keys are hash values already; a multiplicative step spreads them over
/// the slots.
template <typename KeysOf>
class ChangedKeyTable {
 public:
  /// `keys_of(node)` points at the node's kLshBands band keys. One task
  /// per band fills that band's table.
  template <typename FanOut>
  ChangedKeyTable(const std::vector<uint32_t>& changed, const KeysOf& keys_of,
                  const FanOut& fan_out)
      : keys_of_(keys_of),
        capacity_(
            std::bit_ceil(std::max<size_t>(8, changed.size() * 3 / 2))),
        shift_(65 - std::bit_width(capacity_)),
        slots_(kLshBands * capacity_) {
    fan_out(kLshBands, kLshBands, [&](size_t, size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        Slot* band = slots_.data() + b * capacity_;
        for (uint32_t node : changed) {
          const uint64_t key = keys_of_(node)[b];
          size_t s = SlotOf(key);
          while (band[s].node != kNone) s = (s + 1) & (capacity_ - 1);
          band[s] = {static_cast<uint32_t>(key >> 32), node};
        }
      }
    });
  }

  /// Calls `fn(node)` for every changed node whose band-`band` key is
  /// `key`.
  template <typename Fn>
  void ForEachMatch(size_t band, uint64_t key, Fn&& fn) const {
    const Slot* slots = slots_.data() + band * capacity_;
    const uint32_t high = static_cast<uint32_t>(key >> 32);
    for (size_t s = SlotOf(key); slots[s].node != kNone;
         s = (s + 1) & (capacity_ - 1)) {
      if (slots[s].high == high && keys_of_(slots[s].node)[band] == key) {
        fn(slots[s].node);
      }
    }
  }

 private:
  struct Slot {
    uint32_t high = 0;
    uint32_t node = kNone;
  };

  size_t SlotOf(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  const KeysOf& keys_of_;
  size_t capacity_;
  int shift_;
  std::vector<Slot> slots_;
};

/// Chunks-per-thread for pair scoring. Row i of the triangular all-pairs
/// loop scores n - i - 1 pairs, so equal-row chunks are imbalanced;
/// over-decomposing lets the shared queue even the load out.
constexpr size_t kChunksPerThread = 8;

}  // namespace

double StoryAligner::StoryPairScore(const Story& a, const Story& b) const {
  double affinity = SimilarityModel::TemporalAffinity(
      a.start_time(), a.end_time(), b.start_time(), b.end_time(),
      kTemporalTolerance);
  if (affinity <= 0.0) return 0.0;
  return affinity * model_->StorySimilarity(a, b);
}

double StoryAligner::StoryPairScore(const Story& a, double a_norm,
                                    const Story& b, double b_norm,
                                    const IdfTable& idf,
                                    bool* kernel_ran) const {
  double affinity = SimilarityModel::TemporalAffinity(
      a.start_time(), a.end_time(), b.start_time(), b.end_time(),
      kTemporalTolerance);
  if (kernel_ran != nullptr) *kernel_ran = affinity > 0.0;
  if (affinity <= 0.0) return 0.0;
  return affinity * model_->StorySimilarity(a, a_norm, b, b_norm, idf);
}

AlignmentResult StoryAligner::Align(
    const std::vector<const StorySet*>& partitions, const SnippetStore& store,
    StoryId* next_story_id, ThreadPool* pool,
    AlignmentResult previous) const {
  SP_CHECK(next_story_id != nullptr);
  using Pair = AlignmentRecord::Pair;
  const std::shared_ptr<const AlignmentRecord> record = previous.record;
  // Of `previous`, only the record and the integrated stories are read:
  // its maps go now, before this run builds its own.
  previous.integrated_of.clear();
  previous.roles.clear();
  previous.counterpart.clear();
  AlignmentResult result;

  // Collect all story nodes.
  std::vector<StoryNode> nodes;
  for (const StorySet* partition : partitions) {
    SP_CHECK(partition != nullptr);
    for (const auto& [id, story] : partition->stories()) {
      if (story->empty()) continue;
      nodes.push_back({partition->source(), id, &story.read()});
    }
  }
  const size_t n = nodes.size();
  SP_CHECK(n < (size_t{1} << 30));  // AlignmentRecord::Pair's bound.

  // Candidate pair generation: all cross-source pairs up to
  // kLshMinStories stories, LSH over story sketches above.
  const bool lsh_mode = n > kLshMinStories;
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

  // A node whose (source, story, stamp) the record holds is unchanged
  // since the recorded run: same content, so the same keys, norm, spans
  // and pair scores. A record with nodes serves only a run with the same
  // candidate generator; without one, every node counts as changed.
  const AlignmentRecord* reuse = nullptr;
  if (record != nullptr && !record->nodes.empty() &&
      record->lsh_mode == lsh_mode) {
    reuse = record.get();
  }
  std::vector<uint32_t> old_of(n, kNone);
  std::vector<uint32_t> new_of_old(reuse != nullptr ? reuse->nodes.size() : 0,
                                   kNone);
  if (reuse != nullptr) {
    std::unordered_map<uint64_t, uint32_t> old_index;
    old_index.reserve(reuse->nodes.size());
    for (size_t k = 0; k < reuse->nodes.size(); ++k) {
      const AlignmentRecord::Node& node = reuse->nodes[k];
      old_index.emplace(MemberKey(node.source, node.story),
                        static_cast<uint32_t>(k));
    }
    for (size_t i = 0; i < n; ++i) {
      auto it = old_index.find(MemberKey(nodes[i].source, nodes[i].story));
      if (it == old_index.end() ||
          reuse->nodes[it->second].stamp != nodes[i].ptr->stamp()) {
        continue;
      }
      old_of[i] = it->second;
      new_of_old[it->second] = static_cast<uint32_t>(i);
    }
  }
  // DF is frozen for the whole alignment: one IDF table, and each story's
  // keyword norm, serve every pair. Only the changed nodes get keys and
  // norms here; changed[slot[i]] == i for every changed node i.
  const IdfTable idf(*model_);
  std::vector<double> norms(n);
  std::vector<uint32_t> changed;
  std::vector<uint32_t> slot(n);
  for (size_t i = 0; i < n; ++i) {
    if (old_of[i] == kNone) {
      slot[i] = static_cast<uint32_t>(changed.size());
      changed.push_back(static_cast<uint32_t>(i));
    } else {
      norms[i] = reuse->keyword_norms[old_of[i]];
    }
  }
  std::vector<uint64_t> changed_keys(lsh_mode ? kLshBands * changed.size()
                                              : 0);
  // Per-node pure work: build it in parallel (disjoint writes).
  fan_out(changed.size(), num_chunks, [&](size_t, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const Story& story = *nodes[changed[c]].ptr;
      norms[changed[c]] = idf.SquaredNorm(story.keywords());
      if (!lsh_mode) continue;
      StoryBandKeys(story.entities(), story.keywords(),
                    std::span<uint64_t, kLshBands>(
                        changed_keys.data() + c * kLshBands, kLshBands));
    }
  });

  // A pair of two unchanged nodes keeps the record's candidate status
  // and flags. It counts as scored, and its kernel as a comparison, so
  // both counts read as a fresh run's.
  UnionFind uf(n);
  if (reuse != nullptr) {
    uint64_t reused_kernels = 0;
    for (const Pair& pair : reuse->pairs) {
      const uint32_t i = new_of_old[pair.i];
      const uint32_t j = new_of_old[pair.j];
      if (i == kNone || j == kNone) continue;
      ++result.num_pairs_reused;
      reused_kernels += (pair.flags & AlignmentRecord::kKernel) != 0;
      if (pair.flags & AlignmentRecord::kEdge) uf.Union(i, j);
    }
    model_->AddComparisons(reused_kernels);
  }

  // Every other candidate involves a changed node and is scored here,
  // the pair of two changed nodes from its lower node only: with every
  // node changed, row i's candidates are the pairs (i, j), j > i. Rows
  // fan out over fixed chunks, each recording its pairs, with their
  // flags, in its own list.
  std::vector<std::vector<Pair>> chunk_pairs(
      parallel ? std::min(num_chunks, n) : 1);
  auto score_rows = [&](size_t rows, const auto& row_fn) {
    fan_out(rows, num_chunks, [&](size_t chunk, size_t begin, size_t end) {
      std::vector<uint32_t> candidates;
      for (size_t r = begin; r < end; ++r) {
        row_fn(r, &candidates, &chunk_pairs[chunk]);
      }
    });
  };
  auto consider = [&](uint32_t row, uint32_t other, std::vector<Pair>* pairs) {
    if (nodes[row].source == nodes[other].source) return;
    const uint32_t i = std::min(row, other);
    const uint32_t j = std::max(row, other);
    bool kernel = false;
    const bool edge = StoryPairScore(*nodes[i].ptr, norms[i], *nodes[j].ptr,
                                     norms[j], idf, &kernel) >=
                      config_.align_threshold;
    pairs->push_back(
        {i, j,
         static_cast<uint32_t>((kernel ? AlignmentRecord::kKernel : 0) |
                               (edge ? AlignmentRecord::kEdge : 0))});
  };
  if (!lsh_mode) {
    score_rows(changed.size(), [&](size_t r, std::vector<uint32_t>*,
                                   std::vector<Pair>* pairs) {
      const uint32_t c = changed[r];
      for (uint32_t j = 0; j < n; ++j) {
        if (j == c || (old_of[j] == kNone && j < c)) continue;
        consider(c, j, pairs);
      }
    });
  } else {
    // Every node probes the changed nodes' keys with its own to find its
    // changed bucket-mates in any band.
    auto keys_of = [&](uint32_t i) {
      return old_of[i] == kNone
                 ? changed_keys.data() + slot[i] * kLshBands
                 : reuse->band_keys.data() + old_of[i] * kLshBands;
    };
    const ChangedKeyTable table(changed, keys_of, fan_out);
    score_rows(n, [&](size_t i, std::vector<uint32_t>* candidates,
                      std::vector<Pair>* pairs) {
      const uint32_t row = static_cast<uint32_t>(i);
      const bool row_changed = old_of[i] == kNone;
      const uint64_t* keys = keys_of(row);
      candidates->clear();
      for (size_t b = 0; b < kLshBands; ++b) {
        table.ForEachMatch(b, keys[b], [&](uint32_t c) {
          if (c != row && (!row_changed || c > row)) candidates->push_back(c);
        });
      }
      std::sort(candidates->begin(), candidates->end());
      candidates->erase(std::unique(candidates->begin(), candidates->end()),
                        candidates->end());
      for (uint32_t c : *candidates) consider(row, c, pairs);
    });
  }
  result.num_pairs_scored = result.num_pairs_reused;
  for (const std::vector<Pair>& pairs : chunk_pairs) {
    result.num_pairs_scored += pairs.size();
    for (const Pair& pair : pairs) {
      if (pair.flags & AlignmentRecord::kEdge) uf.Union(pair.i, pair.j);
    }
  }

  // A run without a record leaves one for a later run: every node, key,
  // norm and pair of this run. A run given one leaves a record of its
  // graph alone, so the per-story arrays go with the record it was given
  // and do not outlive the re-alignment; a later run given it recomputes
  // every story.
  auto out = std::make_shared<AlignmentRecord>();
  if (record == nullptr) {
    out->lsh_mode = lsh_mode;
    out->nodes.reserve(n);
    for (const StoryNode& node : nodes) {
      out->nodes.push_back({node.source, 0, node.story, node.ptr->stamp()});
    }
    out->band_keys = std::move(changed_keys);
    out->keyword_norms = std::move(norms);
    out->pairs.reserve(result.num_pairs_scored);
    for (std::vector<Pair>& pairs : chunk_pairs) {
      out->pairs.insert(out->pairs.end(), pairs.begin(), pairs.end());
      std::vector<Pair>().swap(pairs);
    }
  }
  chunk_pairs.clear();

  // Build integrated stories from the union-find components, numbered in
  // node order; each is the union of its member stories in node order.
  std::vector<uint32_t> story_of_root(n, kNone);
  std::vector<std::vector<const Story*>> parts;
  result.integrated_of.reserve(store.size());
  for (size_t i = 0; i < n; ++i) {
    uint32_t& index = story_of_root[uf.Find(i)];
    if (index == kNone) {
      index = static_cast<uint32_t>(result.stories.size());
      IntegratedStory integrated;
      integrated.id = (*next_story_id)++;
      integrated.merged.set_id(integrated.id);
      result.stories.push_back(std::move(integrated));
      parts.emplace_back();
    }
    result.stories[index].members.push_back(
        {nodes[i].source, nodes[i].story});
    parts[index].push_back(nodes[i].ptr);
    for (SnippetId sid : nodes[i].ptr->snippets()) {
      result.integrated_of[sid] = index;
    }
    if (record == nullptr) out->nodes[i].integrated = index;
  }
  // An integrated story whose member stories all kept their stamps and
  // are the members of one integrated story of `previous` has that
  // story's merged view: the same stories, merged in the same order, since
  // the partitions list unchanged stories in the same relative order. It
  // takes that view over instead of merging again.
  std::vector<uint32_t> from(result.stories.size(), kNone);
  if (reuse != nullptr) {
    constexpr uint32_t kMixed = kNone - 1;
    for (size_t i = 0; i < n; ++i) {
      uint32_t& k = from[story_of_root[uf.Find(i)]];
      const uint32_t old =
          old_of[i] == kNone ? kMixed : reuse->nodes[old_of[i]].integrated;
      k = k == kNone || k == old ? old : kMixed;
    }
  }
  for (size_t s = 0; s < result.stories.size(); ++s) {
    IntegratedStory& integrated = result.stories[s];
    std::sort(integrated.members.begin(), integrated.members.end());
    if (from[s] < previous.stories.size() &&
        previous.stories[from[s]].members == integrated.members) {
      integrated.merged = std::move(previous.stories[from[s]].merged);
      integrated.merged.set_id(integrated.id);
      continue;
    }
    for (const Story* part : parts[s]) integrated.merged.MergeFrom(*part);
  }

  out->graph = record != nullptr
                   ? record->graph
                   : CounterpartGraph::Build(partitions, store, *model_,
                                             config_.pair_threshold,
                                             kPairTolerance, pool);
  ClassifySnippetRoles(*out->graph, &result);
  result.graph =
      std::shared_ptr<const CounterpartGraph>(out, out->graph.get());
  result.record = std::move(out);
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
  result->counterpart.reserve(ids.size());
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
