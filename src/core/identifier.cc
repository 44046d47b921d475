#include "core/identifier.h"

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "util/logging.h"

namespace storypivot {
namespace {

/// Blend between the best member-snippet score (1 - blend) and the
/// story-centroid score (blend) when scoring a snippet against a story.
constexpr double kCentroidBlend = 0.3;

/// True when the sorted supports of `a` and `b` share a term id.
bool ShareTerm(const text::TermVector& a, const text::TermVector& b) {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i].first < eb[j].first) {
      ++i;
    } else if (eb[j].first < ea[i].first) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

StoryId StoryIdentifier::PlaceWithCandidates(
    const Snippet& snippet, const std::vector<SnippetId>& candidates,
    StorySet* stories, const SnippetStore& store,
    StoryId* next_story_id) const {
  SP_CHECK(stories != nullptr);
  SP_CHECK(next_story_id != nullptr);
  const SimilarityConfig& sim = model_->config();

  // Best member-snippet similarity per story. Both kernels are exactly
  // +0.0 when their inputs share no entity and no keyword id (the engine
  // admits only finite positive weights), so such pairs score 0.0
  // without a kernel call. Every candidate's story still enters
  // `best_member`, zero scores included: insertion order fixes the map's
  // iteration order, and with it `merge_set` and the victim order of
  // MergeStories.
  std::unordered_map<StoryId, double> best_member;
  uint64_t skipped = 0;  // Pairs scored 0.0 without a kernel call.
  for (SnippetId cid : candidates) {
    if (cid == snippet.id) continue;
    StoryId story_id = stories->StoryOf(cid);
    if (story_id == kInvalidStoryId) continue;
    const Snippet* candidate = store.Find(cid);
    if (candidate == nullptr) continue;
    double s = 0.0;
    if (ShareTerm(snippet.entities, candidate->entities) ||
        ShareTerm(snippet.keywords, candidate->keywords)) {
      s = model_->SnippetSimilarity(snippet, *candidate);
    } else {
      ++skipped;
    }
    auto [it, inserted] = best_member.emplace(story_id, s);
    if (!inserted && s > it->second) it->second = s;
  }

  // Blend with the story-centroid score and find the best story plus the
  // set of stories the snippet bridges above the merge threshold.
  StoryId best_story = kInvalidStoryId;
  double best_score = 0.0;
  std::vector<StoryId> merge_set;
  for (const auto& [story_id, member_score] : best_member) {
    const Story* story = stories->FindStory(story_id);
    SP_CHECK(story != nullptr);
    double centroid_score = 0.0;
    if (ShareTerm(snippet.entities, story->entities()) ||
        ShareTerm(snippet.keywords, story->keywords())) {
      centroid_score = model_->SnippetStorySimilarity(snippet, *story);
    } else {
      ++skipped;
    }
    double score = (1.0 - kCentroidBlend) * member_score +
                   kCentroidBlend * centroid_score;
    if (score > best_score ||
        (score == best_score && story_id < best_story)) {
      best_score = score;
      best_story = story_id;
    }
    if (score >= sim.merge_threshold) merge_set.push_back(story_id);
  }
  // A skipped pair was still scored, so it still counts as a comparison:
  // `num_comparisons()` stays the number of pairs identification scored,
  // whichever way each score was found.
  if (skipped > 0) model_->AddComparisons(skipped);

  if (best_story == kInvalidStoryId || best_score < sim.assign_threshold) {
    StoryId id = (*next_story_id)++;
    stories->CreateStory(id);
    stories->AddSnippetToStory(snippet, id);
    return id;
  }

  if (merge_set.size() >= 2) {
    // The snippet bridges several stories strongly: merge them
    // (incremental story construction, §2.2). The best story survives.
    std::vector<StoryId> ordered;
    ordered.push_back(best_story);
    for (StoryId id : merge_set) {
      if (id != best_story) ordered.push_back(id);
    }
    best_story = stories->MergeStories(ordered);
  }
  stories->AddSnippetToStory(snippet, best_story);
  return best_story;
}

StoryId StoryIdentifier::Identify(const Snippet& snippet, StorySet* stories,
                                  const SnippetStore& store,
                                  StoryId* next_story_id) const {
  // Complete mode reads the whole time axis, which lists every entry in
  // the same (timestamp, id) order as TemporalIndex::ForEach.
  Timestamp lo = std::numeric_limits<Timestamp>::min();
  Timestamp hi = std::numeric_limits<Timestamp>::max();
  if (mode_ == IdentificationMode::kTemporal) {
    lo = snippet.timestamp - config_.window;
    hi = snippet.timestamp + config_.window;
  }
  return PlaceWithCandidates(snippet,
                             stories->snippet_times().IdsInWindow(lo, hi),
                             stories, store, next_story_id);
}

}  // namespace storypivot
