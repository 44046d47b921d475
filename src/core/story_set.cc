#include "core/story_set.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace storypivot {

Story& StorySet::CreateStory(StoryId id) {
  auto [story, inserted] = stories_.Emplace(id, Story(id));
  SP_CHECK(inserted);
  story->set_stamp(++last_stamp_);
  return *story;
}

void StorySet::AddSnippetToStory(const Snippet& snippet, StoryId story_id) {
  Story* story = stories_.FindMutable(story_id);
  SP_CHECK(story != nullptr);
  SP_CHECK(!story_of_.contains(snippet.id));
  story->AddSnippet(snippet);
  story->set_stamp(++last_stamp_);
  story_of_.Emplace(snippet.id, story_id);
  snippet_times_.Insert(snippet.timestamp, snippet.id);
  entity_index_.Add(snippet.id, snippet.entities);
}

void StorySet::RemoveSnippet(const Snippet& snippet,
                             const SnippetStore& store) {
  const StoryId* assigned = story_of_.Find(snippet.id);
  SP_CHECK(assigned != nullptr);
  const StoryId story_id = *assigned;
  Story* story = stories_.FindMutable(story_id);
  SP_CHECK(story != nullptr);

  // Collect survivors for aggregate recomputation.
  std::vector<const Snippet*> survivors;
  survivors.reserve(story->size());
  for (SnippetId sid : story->snippets()) {
    if (sid == snippet.id) continue;
    const Snippet* s = store.Find(sid);
    SP_CHECK(s != nullptr);
    survivors.push_back(s);
  }
  story->RemoveSnippet(snippet, survivors);
  story->set_stamp(++last_stamp_);
  const bool story_empty = story->empty();
  story_of_.Erase(snippet.id);
  // The snippet was assigned, so the temporal index must know it.
  SP_CHECK(snippet_times_.Erase(snippet.timestamp, snippet.id));
  entity_index_.Remove(snippet.id, snippet.entities);
  if (story_empty) stories_.Erase(story_id);
}

StoryId StorySet::MergeStories(const std::vector<StoryId>& ids) {
  SP_CHECK(ids.size() >= 2);
  const StoryId survivor_id = ids.front();
  SP_CHECK(stories_.contains(survivor_id));
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] == survivor_id) continue;
    // Copy the victim out before erasing it: map mutations relocate
    // entries, so holding references across Erase is not an option.
    const Story* found = stories_.Find(ids[i]);
    SP_CHECK(found != nullptr);
    Story victim = *found;
    stories_.Erase(ids[i]);
    for (SnippetId sid : victim.snippets()) {
      *story_of_.FindMutable(sid) = survivor_id;
    }
    Story* survivor = stories_.FindMutable(survivor_id);
    survivor->MergeFrom(victim);
    survivor->set_stamp(++last_stamp_);
  }
  return survivor_id;
}

std::vector<StoryId> StorySet::SplitStory(
    StoryId story_id, const std::vector<std::vector<SnippetId>>& components,
    const SnippetStore& store, StoryId* next_story_id) {
  SP_CHECK(next_story_id != nullptr);
  const Story* existing = stories_.Find(story_id);
  SP_CHECK(existing != nullptr);
  SP_CHECK(!components.empty());

  size_t total = 0;
  for (const auto& c : components) total += c.size();
  SP_CHECK(total == existing->size());

  std::vector<StoryId> out;
  if (components.size() == 1) {
    out.push_back(story_id);
    return out;
  }
  stories_.Erase(story_id);
  for (size_t c = 0; c < components.size(); ++c) {
    StoryId id = (c == 0) ? story_id : (*next_story_id)++;
    Story& story = CreateStory(id);  // A fresh stamp, the first id's too.
    for (SnippetId sid : components[c]) {
      const Snippet* snippet = store.Find(sid);
      SP_CHECK(snippet != nullptr);
      story.AddSnippet(*snippet);
      *story_of_.FindMutable(sid) = id;
    }
    out.push_back(id);
  }
  return out;
}

StoryId StorySet::StoryOf(SnippetId id) const {
  const StoryId* story = story_of_.Find(id);
  return story == nullptr ? kInvalidStoryId : *story;
}

const Story* StorySet::FindStory(StoryId id) const {
  return stories_.Find(id);
}

std::vector<StoryId> StorySet::StoriesInWindow(Timestamp lo,
                                               Timestamp hi) const {
  std::vector<StoryId> out;
  snippet_times_.ForEachInWindow(lo, hi,
                                 [&](Timestamp, SnippetId sid) {
                                   const StoryId* story = story_of_.Find(sid);
                                   if (story != nullptr) {
                                     out.push_back(*story);
                                   }
                                 });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

StorySet StorySet::Freeze() const {
  StorySet frozen(source_);
  frozen.stories_ = stories_;            // O(1) structural shares.
  frozen.story_of_ = story_of_;
  frozen.snippet_times_ = snippet_times_;
  frozen.entity_index_ = entity_index_.Freeze();
  frozen.last_stamp_ = last_stamp_;
  return frozen;
}

}  // namespace storypivot
