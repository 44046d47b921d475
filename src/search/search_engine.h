#ifndef STORYPIVOT_SEARCH_SEARCH_ENGINE_H_
#define STORYPIVOT_SEARCH_SEARCH_ENGINE_H_

#include <string_view>
#include <vector>

#include "core/engine.h"
#include "search/postings_index.h"
#include "search/query_pipeline.h"
#include "search/ranker.h"
#include "util/sync.h"

namespace storypivot::search {

/// The search subsystem's facade: an incrementally maintained
/// PostingsIndex plus the ranked (BM25 top-k) query entry points over it
/// (DESIGN.md §11).
///
/// Attaching (construction) registers the object as the engine's
/// IngestObserver — the engine must have no other observer — and bulk-
/// builds the index from the live snippet store. The build is iteration-
/// order independent (postings lists are sorted, statistics are sums), so
/// an index rebuilt after DurableEngine recovery is identical to one
/// maintained live; that is why recovery needs no index snapshot
/// (rebuild-on-recover, DESIGN.md §11.4). Detaching happens in the
/// destructor. The engine must outlive this object.
///
/// Threading: mirrors the engine's single-writer model, machine-checked
/// via the `writer_` serial role (DESIGN.md §13). The engine invokes the
/// observer hooks only from serial sections (including the AddSnippets
/// parallel batch path, which notifies in arrival order from its serial
/// epilogue) — the hooks assert the role, so the analysis rejects any
/// new code path mutating the index outside it. Queries are safe
/// concurrently with each other in the absence of writers.
class SearchEngine final : public IngestObserver {
 public:
  /// Attaches to `engine` and indexes its current snippets.
  explicit SearchEngine(StoryPivotEngine* engine);
  ~SearchEngine() override;

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  // IngestObserver — engine callbacks, not for direct use.
  void OnSnippetAdded(const Snippet& snippet) override;
  void OnSnippetRemoved(const Snippet& snippet) override;
  /// Recovery re-attach (DurableEngine::Reopen): reseats onto the
  /// rebuilt engine and rebuilds the index from its snippet store —
  /// the rebuild is bit-identical to an index maintained live
  /// (rebuild-on-recover, DESIGN.md §11.4).
  void OnEngineReplaced(StoryPivotEngine* engine) override;

  /// Canonicalizes a free-text query (see ParseQuery).
  [[nodiscard]] ParsedQuery Parse(std::string_view query) const;

  /// Parses and ranks in one step.
  [[nodiscard]] std::vector<StoryHit> Search(
      std::string_view query, const SearchOptions& options = {}) const;

  /// Ranks an already-parsed query through the index (RankStories).
  [[nodiscard]] std::vector<StoryHit> Search(
      const ParsedQuery& query, const SearchOptions& options = {}) const;

  [[nodiscard]] const PostingsIndex& index() const {
    writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return index_;
  }
  [[nodiscard]] const StoryPivotEngine& engine() const { return *engine_; }

 private:
  /// Bulk-builds `index_` from the engine's live snippet store (the
  /// constructor and OnEngineReplaced share it).
  void BuildIndexFromStore() SP_REQUIRES(writer_);

  /// Phantom capability for the single-writer serial section the index
  /// shares with the engine (DESIGN.md §13). Observer hooks and query
  /// entry points assert it; only hook-driven code may mutate `index_`.
  // lockcheck: name=SearchEngine.writer_ role
  SerialSection writer_;
  /// Points at the engine this object observes; reseated only by
  /// OnEngineReplaced (recovery rebuilt the engine object).
  StoryPivotEngine* engine_;
  PostingsIndex index_ SP_GUARDED_BY(writer_);
};

}  // namespace storypivot::search

#endif  // STORYPIVOT_SEARCH_SEARCH_ENGINE_H_
