#include "search/story_view.h"

namespace storypivot::search {

StoryCorpus CorpusView(const StoryPivotEngine& engine) {
  StoryCorpus corpus;
  corpus.partitions = engine.partitions();
  corpus.total_stories = engine.TotalStories();
  const StoryPivotEngine::IdCounters counters = engine.id_counters();
  corpus.next_story = counters.next_story;
  corpus.partition_of.assign(counters.next_source, nullptr);
  for (const StorySet* part : corpus.partitions) {
    if (part->source() < corpus.partition_of.size()) {
      corpus.partition_of[part->source()] = part;
    }
  }
  return corpus;
}

}  // namespace storypivot::search
