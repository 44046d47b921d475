#include "search/search_engine.h"

#include "search/story_view.h"
#include "util/logging.h"

namespace storypivot::search {

SearchEngine::SearchEngine(StoryPivotEngine* engine) : engine_(engine) {
  SP_CHECK(engine_ != nullptr);
  // One observer per engine: silently stacking indexes would leave the
  // earlier one stale.
  SP_CHECK(engine_->ingest_observer() == nullptr);
  writer_.AssertInSection();  // The constructing thread is the writer.
  BuildIndexFromStore();
  engine_->set_ingest_observer(this);
}

SearchEngine::~SearchEngine() {
  if (engine_->ingest_observer() == this) {
    engine_->set_ingest_observer(nullptr);
  }
}

void SearchEngine::OnSnippetAdded(const Snippet& snippet) {
  // The engine fires observer hooks only from serial sections
  // (NotifyAdded is SP_REQUIRES(serial_)), so the role holds here.
  writer_.AssertInSection();
  index_.AddSnippet(snippet);
}

void SearchEngine::OnSnippetRemoved(const Snippet& snippet) {
  writer_.AssertInSection();
  index_.RemoveSnippet(snippet);
}

void SearchEngine::OnEngineReplaced(StoryPivotEngine* engine) {
  // Recovery rebuilt the engine object (DurableEngine::Reopen); the old
  // one is about to be destroyed, so reseat before touching anything.
  writer_.AssertInSection();
  SP_CHECK(engine != nullptr);
  engine_ = engine;
  index_ = PostingsIndex();
  BuildIndexFromStore();
}

void SearchEngine::BuildIndexFromStore() {
  // The lambda is a separate function to the thread-safety analysis, so
  // it re-asserts the serial role the calling thread holds.
  engine_->store().ForEach([this](const Snippet& snippet) {
    writer_.AssertInSection();
    index_.AddSnippet(snippet);
  });
}

ParsedQuery SearchEngine::Parse(std::string_view query) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  const StoryPivotEngine& engine = *engine_;
  return ParseQuery(engine.gazetteer(), engine.entity_vocabulary(),
                    engine.keyword_vocabulary(), index_, query);
}

std::vector<StoryHit> SearchEngine::Search(
    std::string_view query, const SearchOptions& options) const {
  return Search(Parse(query), options);
}

std::vector<StoryHit> SearchEngine::Search(
    const ParsedQuery& query, const SearchOptions& options) const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  return RankStories(index_, CorpusView(*engine_), query, options);
}

}  // namespace storypivot::search
