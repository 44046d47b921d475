#include "core/refiner.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace storypivot {
namespace {

/// A snippet is relocated when the target story scores at least this much
/// higher than its current story.
constexpr double kMargin = 0.05;
/// A story that lost snippets is split into its connected components, two
/// members being connected when they score at least kSplitEdgeThreshold
/// within kSplitEdgeWindow of each other.
constexpr double kSplitEdgeThreshold = 0.25;
constexpr Timestamp kSplitEdgeWindow = 14 * kSecondsPerDay;

}  // namespace

RefinementStats StoryRefiner::Refine(const std::vector<StorySet*>& partitions,
                                     const AlignmentResult& alignment,
                                     const SnippetStore& store,
                                     StoryId* next_story_id) const {
  SP_CHECK(next_story_id != nullptr);
  SP_CHECK(alignment.graph != nullptr);
  const CounterpartGraph& graph = *alignment.graph;
  RefinementStats stats;

  std::unordered_map<SourceId, size_t> partition_of_source;
  size_t num_snippets = 0;
  for (size_t p = 0; p < partitions.size(); ++p) {
    SP_CHECK(partitions[p] != nullptr);
    partition_of_source[partitions[p]->source()] = p;
    num_snippets += partitions[p]->snippet_times().size();
  }
  SP_CHECK(graph.snippets().size() == num_snippets);

  // Best cross-source counterpart per snippet, searched globally (not just
  // within one integrated story — that is exactly how mis-assignments are
  // discovered).
  const std::vector<SnippetId>& ids = graph.snippets();
  const std::vector<uint32_t> best_counterpart = graph.BestCounterparts();

  // Leave-one-out affinity of a snippet to a story.
  auto affinity = [&](const Snippet& v, const Story& story,
                      bool member) -> double {
    double denom = static_cast<double>(story.size()) - (member ? 1.0 : 0.0);
    if (denom <= 0.0) return 0.0;
    text::TermVector ents = story.entities();
    text::TermVector kws = story.keywords();
    if (member) {
      ents.Subtract(v.entities);
      kws.Subtract(v.keywords);
    }
    text::TermVector scaled;
    scaled.Merge(ents, 1.0 / denom);
    return kEntityWeight * v.entities.WeightedJaccard(scaled) +
           kKeywordWeight * model_->IdfCosine(v.keywords, kws);
  };

  // Decide all relocations against the *original* assignment, then apply.
  struct Move {
    SnippetId snippet;
    size_t partition_index;
    StoryId from;
    StoryId to;  // kInvalidStoryId => create a new story.
  };
  std::vector<Move> moves;

  // Snippets in (timestamp, id) order.
  for (size_t p = 0; p < ids.size(); ++p) {
    if (best_counterpart[p] == CounterpartGraph::kNone) continue;
    const Snippet* vp = store.Find(ids[p]);
    const Snippet* u = store.Find(ids[best_counterpart[p]]);
    SP_CHECK(vp != nullptr && u != nullptr);
    const Snippet& v = *vp;

    auto v_int = alignment.integrated_of.find(v.id);
    auto u_int = alignment.integrated_of.find(u->id);
    if (v_int == alignment.integrated_of.end() ||
        u_int == alignment.integrated_of.end()) {
      continue;
    }
    if (v_int->second == u_int->second) continue;  // Already consistent.
    ++stats.conflicts_examined;

    const size_t partition_index = partition_of_source.at(v.source);
    StorySet* partition = partitions[partition_index];
    StoryId current_id = partition->StoryOf(v.id);
    if (current_id == kInvalidStoryId) continue;
    const Story* current = partition->FindStory(current_id);
    SP_CHECK(current != nullptr);
    double current_score = affinity(v, *current, /*member=*/true);

    // Candidate targets: same-source stories inside the counterpart's
    // integrated story.
    const IntegratedStory& target_cluster =
        alignment.stories[u_int->second];
    StoryId best_target = kInvalidStoryId;
    double target_score = 0.0;
    for (const auto& [src, story_id] : target_cluster.members) {
      if (src != v.source) continue;
      const Story* candidate = partition->FindStory(story_id);
      if (candidate == nullptr) continue;
      double s = affinity(v, *candidate, /*member=*/false);
      if (s > target_score) {
        target_score = s;
        best_target = story_id;
      }
    }

    if (best_target != kInvalidStoryId &&
        target_score > current_score + kMargin) {
      moves.push_back({v.id, partition_index, current_id, best_target});
    } else if (best_target == kInvalidStoryId && current->size() > 1) {
      // No same-source story exists over there. If the snippet fits its
      // counterpart's cluster much better than its own story, break it
      // out into a fresh story, which the next alignment run will attach
      // to the right cluster.
      double cluster_score =
          affinity(v, target_cluster.merged, /*member=*/false);
      if (cluster_score > current_score + kMargin) {
        moves.push_back({v.id, partition_index, current_id, kInvalidStoryId});
      }
    }
  }

  // Apply moves.
  std::unordered_set<StoryId> dirty;
  std::vector<std::pair<size_t, StoryId>> dirty_stories;
  for (const Move& move : moves) {
    StorySet* partition = partitions[move.partition_index];
    const Snippet* v = store.Find(move.snippet);
    SP_CHECK(v != nullptr);
    // The source story may have changed (earlier move); re-check
    // membership.
    if (partition->StoryOf(v->id) != move.from) continue;
    StoryId to = move.to;
    if (to != kInvalidStoryId && partition->FindStory(to) == nullptr) {
      continue;  // Target vanished (merged/emptied) — skip.
    }
    partition->RemoveSnippet(*v, store);
    if (to == kInvalidStoryId) {
      to = (*next_story_id)++;
      partition->CreateStory(to);
      ++stats.stories_created;
    }
    partition->AddSnippetToStory(*v, to);
    ++stats.snippets_moved;
    if (dirty.insert(move.from).second) {
      dirty_stories.push_back({move.partition_index, move.from});
    }
  }

  // Split-check stories that lost members.
  for (const auto& [p, story_id] : dirty_stories) {
    if (partitions[p]->FindStory(story_id) == nullptr) continue;
    int created =
        SplitIfDisconnected(partitions[p], story_id, store, next_story_id);
    if (created > 0) {
      ++stats.stories_split;
      stats.stories_created += created;
    }
  }
  return stats;
}

int StoryRefiner::SplitIfDisconnected(StorySet* partition, StoryId story_id,
                                      const SnippetStore& store,
                                      StoryId* next_story_id) const {
  const Story* story = partition->FindStory(story_id);
  SP_CHECK(story != nullptr);
  if (story->size() <= 1) return 0;

  std::vector<const Snippet*> members;
  members.reserve(story->size());
  for (SnippetId sid : story->snippets()) {
    const Snippet* s = store.Find(sid);
    SP_CHECK(s != nullptr);
    members.push_back(s);
  }
  std::sort(members.begin(), members.end(),
            [](const Snippet* a, const Snippet* b) {
              if (a->timestamp != b->timestamp) {
                return a->timestamp < b->timestamp;
              }
              return a->id < b->id;
            });

  // Union-find over members; edges = similar within the edge window.
  std::vector<size_t> parent(members.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      if (members[j]->timestamp - members[i]->timestamp > kSplitEdgeWindow) {
        break;
      }
      if (find(i) == find(j)) continue;
      if (model_->SnippetSimilarity(*members[i], *members[j]) >=
          kSplitEdgeThreshold) {
        parent[find(i)] = find(j);
      }
    }
  }

  std::unordered_map<size_t, std::vector<SnippetId>> components;
  for (size_t i = 0; i < members.size(); ++i) {
    components[find(i)].push_back(members[i]->id);
  }
  if (components.size() <= 1) return 0;

  std::vector<std::vector<SnippetId>> parts;
  parts.reserve(components.size());
  for (auto& [root, ids] : components) parts.push_back(std::move(ids));
  // Deterministic order: by earliest member id.
  std::sort(parts.begin(), parts.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  partition->SplitStory(story_id, parts, store, next_story_id);
  return static_cast<int>(parts.size() - 1);
}

}  // namespace storypivot
