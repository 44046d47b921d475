#ifndef STORYPIVOT_CORE_QUERY_H_
#define STORYPIVOT_CORE_QUERY_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "model/ids.h"
#include "model/story.h"
#include "model/time.h"
#include "text/knowledge_base.h"

namespace storypivot {

/// The overview card of a story as rendered in the demo's "Story
/// Information" panels (Figs. 4-6): contributing sources, top entities and
/// description keywords with counts, and the time span.
struct StoryOverview {
  StoryId id = kInvalidStoryId;
  bool integrated = false;
  std::vector<std::string> source_names;
  /// (term, count) pairs, most frequent first.
  std::vector<std::pair<std::string, double>> top_entities;
  std::vector<std::pair<std::string, double>> top_keywords;
  Timestamp start_time = 0;
  Timestamp end_time = 0;
  size_t num_snippets = 0;
};

/// One row of a snippet listing (Fig. 5/6 "Snippet Information").
struct SnippetView {
  SnippetId id = kInvalidSnippetId;
  std::string source_name;
  Timestamp timestamp = 0;
  std::string event_type;
  std::string description;
  std::string document_url;
  std::vector<std::string> entities;
  std::vector<std::string> keywords;
};

/// Background context for an entity: knowledge-base facts (§3's DBpedia
/// extension) plus the stories it appears in.
struct EntityContext {
  std::string name;
  /// Empty when the knowledge base has no entry.
  std::string type;
  std::string description;
  std::vector<std::string> related;
  /// Stories (within sources) mentioning the entity, largest first.
  std::vector<StoryOverview> stories;
};

/// Default cap on the stories a Find* call returns. `top_k` bounds the
/// terms per overview card; without a separate result cap a broad query
/// materializes a card for every matching story in the corpus.
inline constexpr size_t kDefaultMaxResults = 20;

/// Read-only query layer over an engine: the lookups behind the demo's
/// exploration modules, plus entity and keyword search ("queries will consist of enquiries about specified real-world events
/// or entities", §4.2).
///
/// The Find* lookups scan every story of every partition.
class StoryQuery {
 public:
  /// The engine must outlive the query object.
  explicit StoryQuery(const StoryPivotEngine* engine);

  /// Attaches a knowledge base used by Context(); may be nullptr. The
  /// knowledge base must outlive the query object.
  void set_knowledge_base(const text::KnowledgeBase* kb) { kb_ = kb; }

  /// Overview cards for all stories of one source, largest first.
  std::vector<StoryOverview> SourceStories(SourceId source,
                                           size_t top_k = 5) const;

  /// Overview cards for the integrated stories of the last alignment,
  /// largest first. Requires engine->has_alignment().
  std::vector<StoryOverview> IntegratedStories(size_t top_k = 5) const;

  /// Stories (within sources) mentioning the entity, largest first (at
  /// most max_results of them). The query is canonicalized the same way
  /// ingest is: exact canonical name, then gazetteer alias ("MH17" finds
  /// the canonical entity it aliases), then case-insensitive match.
  std::vector<StoryOverview> FindByEntity(
      std::string_view entity_name, size_t top_k = 5,
      size_t max_results = kDefaultMaxResults) const;

  /// Stories whose keyword histogram contains the keyword, largest first
  /// (at most max_results). The query is stemmed like ingested text, so
  /// surface forms ("bombing") match the stored stem ("bomb").
  std::vector<StoryOverview> FindByKeyword(
      std::string_view keyword, size_t top_k = 5,
      size_t max_results = kDefaultMaxResults) const;

  /// Overview card for one per-source story.
  StoryOverview Overview(const Story& story, bool integrated,
                         size_t top_k = 5) const;

  /// Time-ordered snippet views of one story.
  std::vector<SnippetView> Snippets(const Story& story) const;

  /// Single snippet view.
  SnippetView View(const Snippet& snippet) const;

  /// Knowledge-base-enriched context for an entity (§3): facts, related
  /// entities and the stories mentioning it. Works without a knowledge
  /// base (facts stay empty).
  EntityContext Context(std::string_view entity_name,
                        size_t top_k = 5) const;

 private:
  template <typename Pred>
  std::vector<StoryOverview> CollectStories(Pred&& pred, size_t top_k,
                                            size_t max_results) const;

  const StoryPivotEngine* engine_;
  const text::KnowledgeBase* kb_ = nullptr;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_QUERY_H_
