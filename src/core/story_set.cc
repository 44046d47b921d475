#include "core/story_set.h"

#include "util/logging.h"

namespace storypivot {

Story& StorySet::CreateStory(StoryId id) {
  auto [box, inserted] = stories_.Emplace(id, cow::CowBox<Story>(Story(id)));
  SP_CHECK(inserted);
  Story* story = box->Mutate();  // The box is new: no clone.
  story->set_stamp(++last_stamp_);
  return *story;
}

void StorySet::AddSnippetToStory(const Snippet& snippet, StoryId story_id) {
  cow::CowBox<Story>* box = stories_.FindMutable(story_id);
  SP_CHECK(box != nullptr);
  SP_CHECK(!story_of_.contains(snippet.id));
  Story* story = box->Mutate();
  story->AddSnippet(snippet);
  story->set_stamp(++last_stamp_);
  story_of_.Emplace(snippet.id, story_id);
  snippet_times_.Insert(snippet.timestamp, snippet.id);
}

void StorySet::RemoveSnippet(const Snippet& snippet,
                             const SnippetStore& store) {
  const StoryId* assigned = story_of_.Find(snippet.id);
  SP_CHECK(assigned != nullptr);
  const StoryId story_id = *assigned;
  cow::CowBox<Story>* box = stories_.FindMutable(story_id);
  SP_CHECK(box != nullptr);
  Story* story = box->Mutate();

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
  if (story_empty) stories_.Erase(story_id);
}

StoryId StorySet::MergeStories(const std::vector<StoryId>& ids) {
  SP_CHECK(ids.size() >= 2);
  const StoryId survivor_id = ids.front();
  SP_CHECK(stories_.contains(survivor_id));
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] == survivor_id) continue;
    // Share the victim's box before erasing it: map mutations relocate
    // entries, so holding references into the map across Erase is not
    // an option, and the box keeps the story alive in O(1).
    const cow::CowBox<Story>* found = stories_.Find(ids[i]);
    SP_CHECK(found != nullptr);
    const cow::CowBox<Story> victim = *found;
    stories_.Erase(ids[i]);
    for (SnippetId sid : victim->snippets()) {
      *story_of_.FindMutable(sid) = survivor_id;
    }
    Story* survivor = stories_.FindMutable(survivor_id)->Mutate();
    survivor->MergeFrom(victim.read());
    survivor->set_stamp(++last_stamp_);
  }
  return survivor_id;
}

std::vector<StoryId> StorySet::SplitStory(
    StoryId story_id, const std::vector<std::vector<SnippetId>>& components,
    const SnippetStore& store, StoryId* next_story_id) {
  SP_CHECK(next_story_id != nullptr);
  const Story* existing = FindStory(story_id);
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
  const cow::CowBox<Story>* box = stories_.Find(id);
  return box == nullptr ? nullptr : &box->read();
}

StorySet StorySet::Freeze() const { return StorySet(*this); }

}  // namespace storypivot
