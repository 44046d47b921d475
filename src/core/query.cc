#include "core/query.h"

#include <algorithm>
#include <utility>

#include "text/query_canonicalize.h"
#include "util/logging.h"

namespace storypivot {

StoryQuery::StoryQuery(const StoryPivotEngine* engine) : engine_(engine) {
  SP_CHECK(engine != nullptr);
}

StoryOverview StoryQuery::Overview(const Story& story, bool integrated,
                                   size_t top_k) const {
  StoryOverview out;
  out.id = story.id();
  out.integrated = integrated;
  for (SourceId source : story.sources()) {
    out.source_names.push_back(engine_->SourceName(source));
  }
  for (const auto& [term, count] : story.entities().TopK(top_k)) {
    out.top_entities.push_back(
        {engine_->entity_vocabulary().TermOf(term), count});
  }
  for (const auto& [term, count] : story.keywords().TopK(top_k)) {
    out.top_keywords.push_back(
        {engine_->keyword_vocabulary().TermOf(term), count});
  }
  out.start_time = story.start_time();
  out.end_time = story.end_time();
  out.num_snippets = story.size();
  return out;
}

namespace {
void SortBySizeDesc(std::vector<StoryOverview>& overviews) {
  std::sort(overviews.begin(), overviews.end(),
            [](const StoryOverview& a, const StoryOverview& b) {
              if (a.num_snippets != b.num_snippets) {
                return a.num_snippets > b.num_snippets;
              }
              return a.id < b.id;
            });
}
}  // namespace

template <typename Pred>
std::vector<StoryOverview> StoryQuery::CollectStories(
    Pred&& pred, size_t top_k, size_t max_results) const {
  std::vector<StoryOverview> out;
  for (const StorySet* partition : engine_->partitions()) {
    for (const auto& [id, story] : partition->stories()) {
      if (pred(story)) {
        out.push_back(Overview(story, /*integrated=*/false, top_k));
      }
    }
  }
  SortBySizeDesc(out);
  if (out.size() > max_results) out.resize(max_results);
  return out;
}

std::vector<StoryOverview> StoryQuery::SourceStories(SourceId source,
                                                     size_t top_k) const {
  std::vector<StoryOverview> out;
  const StorySet* partition = engine_->partition(source);
  if (partition == nullptr) return out;
  for (const auto& [id, story] : partition->stories()) {
    out.push_back(Overview(story, /*integrated=*/false, top_k));
  }
  SortBySizeDesc(out);
  return out;
}

std::vector<StoryOverview> StoryQuery::IntegratedStories(
    size_t top_k) const {
  std::vector<StoryOverview> out;
  SP_CHECK(engine_->has_alignment());
  for (const IntegratedStory& integrated : engine_->alignment().stories) {
    out.push_back(Overview(integrated.merged, /*integrated=*/true, top_k));
  }
  SortBySizeDesc(out);
  return out;
}

std::vector<StoryOverview> StoryQuery::FindByEntity(
    std::string_view entity_name, size_t top_k, size_t max_results) const {
  // Canonicalize the query the way ingest canonicalized the text, so
  // alias queries ("MH17") resolve to the canonical entity they index.
  text::TermId term = text::CanonicalizeEntityQuery(
      engine_->gazetteer(), engine_->entity_vocabulary(), entity_name);
  if (term == text::kInvalidTermId) return {};
  return CollectStories(
      [term](const Story& story) {
        return story.entities().ValueOf(term) > 0.0;
      },
      top_k, max_results);
}

std::vector<StoryOverview> StoryQuery::FindByKeyword(
    std::string_view keyword, size_t top_k, size_t max_results) const {
  // Stem the query like ingested text: the keyword vocabulary stores
  // stems, so the surface form alone would silently miss.
  text::TermId term = text::CanonicalizeKeywordQuery(
      engine_->keyword_vocabulary(), keyword);
  if (term == text::kInvalidTermId) return {};
  return CollectStories(
      [term](const Story& story) {
        return story.keywords().ValueOf(term) > 0.0;
      },
      top_k, max_results);
}

std::vector<SnippetView> StoryQuery::Snippets(const Story& story) const {
  std::vector<SnippetView> out;
  out.reserve(story.size());
  for (SnippetId sid : story.snippets()) {
    const Snippet* snippet = engine_->store().Find(sid);
    SP_CHECK(snippet != nullptr);
    out.push_back(View(*snippet));
  }
  return out;
}

EntityContext StoryQuery::Context(std::string_view entity_name,
                                  size_t top_k) const {
  EntityContext out;
  out.name = std::string(entity_name);
  if (kb_ != nullptr) {
    if (const text::KnowledgeEntry* entry = kb_->Find(entity_name)) {
      out.type = entry->type;
      out.description = entry->description;
    }
    for (const text::KnowledgeEntry* neighbor :
         kb_->Neighbors(entity_name)) {
      out.related.push_back(neighbor->name);
    }
  }
  out.stories = FindByEntity(entity_name, top_k);
  return out;
}

SnippetView StoryQuery::View(const Snippet& snippet) const {
  SnippetView out;
  out.id = snippet.id;
  out.source_name = engine_->SourceName(snippet.source);
  out.timestamp = snippet.timestamp;
  out.event_type = snippet.event_type;
  out.description = snippet.description;
  out.document_url = snippet.document_url;
  for (const auto& [term, count] : snippet.entities.entries()) {
    out.entities.push_back(engine_->entity_vocabulary().TermOf(term));
  }
  for (const auto& [term, count] : snippet.keywords.entries()) {
    out.keywords.push_back(engine_->keyword_vocabulary().TermOf(term));
  }
  return out;
}

}  // namespace storypivot
