#ifndef STORYPIVOT_CORE_ENGINE_H_
#define STORYPIVOT_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aligner.h"
#include "core/identifier.h"
#include "core/refiner.h"
#include "core/similarity.h"
#include "core/story_set.h"
#include "model/document.h"
#include "model/snippet.h"
#include "storage/snippet_store.h"
#include "text/annotator.h"
#include "text/gazetteer.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace storypivot {

/// Full engine configuration.
struct EngineConfig {
  /// Story-identification execution mode (Fig. 2).
  IdentificationMode mode = IdentificationMode::kTemporal;
  IdentifierConfig identifier;
  SimilarityConfig similarity;
  AlignmentConfig alignment;
  /// Worker threads for the engine-internal parallel paths: batch
  /// ingestion (AddSnippets) and alignment pair scoring. 1 keeps the
  /// engine fully serial (no pool is created); results are bit-identical
  /// for every value (DESIGN.md §9).
  size_t num_threads = 1;
};

/// Engine configuration tuned for raw news prose ingested through
/// AddDocument. Real paragraph text has far more diverse vocabulary than
/// curated event annotations, so the similarity thresholds sit lower and
/// the identification window wider than the synthetic-snippet defaults.
EngineConfig NewsProseEngineConfig();

/// Cumulative engine counters (work and wall-clock per phase).
struct EngineStats {
  uint64_t snippets_ingested = 0;
  uint64_t snippets_removed = 0;
  uint64_t documents_ingested = 0;
  uint64_t alignments_run = 0;
  uint64_t refinements_run = 0;
  /// Wall-clock time of story identification: each AddSnippet's, and
  /// each AddSnippets batch's from the start of its identification phase
  /// to the end of its last shard.
  double identify_time_ms = 0.0;
  /// The per-shard identification times summed. Equals identify_time_ms
  /// for AddSnippet; with several engine threads, shards overlap and the
  /// sum exceeds the wall time.
  double identify_cpu_ms = 0.0;
  double align_time_ms = 0.0;
  double refine_time_ms = 0.0;
};

class StoryPivotEngine;

/// Observer of the engine's snippet-level mutations, implemented by
/// external index maintainers (the search subsystem keeps its inverted
/// index in sync through it). Callbacks fire only from the engine's
/// serial sections, after a snippet is fully part of the engine state
/// (or fully removed), in a deterministic order: arrival order for
/// batches, reverse-arrival order for rollbacks. Story merges and splits
/// deliberately have no callback — snippet membership is the only state
/// an observer can rely on, and story-level views must resolve
/// snippet -> story assignments live (DESIGN.md §11 explains why this is
/// what makes observer-maintained indexes deterministic). Implementations
/// must not call back into the engine's mutating API.
class IngestObserver {
 public:
  virtual ~IngestObserver() = default;
  virtual void OnSnippetAdded(const Snippet& snippet) = 0;
  virtual void OnSnippetRemoved(const Snippet& snippet) = 0;

  /// The engine object this observer was attached to has been REPLACED
  /// wholesale by `engine` — DurableEngine::Reopen rebuilds a fresh
  /// StoryPivotEngine from the checkpoint + WAL and re-attaches the old
  /// engine's observer to it. Implementations must drop every pointer
  /// into the old engine (it is about to be destroyed) and rebuild any
  /// derived state from `engine`; the default ignores the event, which
  /// is only correct for observers that keep no engine-derived state.
  /// Fires from the replacing serial section, like the other hooks.
  virtual void OnEngineReplaced(StoryPivotEngine* engine) { (void)engine; }
};

/// STORYPIVOT — the façade over extraction, story identification, story
/// alignment and refinement (§2.1, Fig. 1). Usage:
///
///   StoryPivotEngine engine;                      // temporal mode, w=7d
///   SourceId nyt = engine.RegisterSource("NYT");
///   engine.gazetteer()->AddEntity("Ukraine");     // seed extraction
///   engine.AddDocument(doc);                      // raw text path, or
///   engine.AddSnippet(snippet);                   // pre-annotated path
///   const AlignmentResult& aligned = engine.Align();
///   engine.Refine();                              // propagate corrections
///
/// Threading model (DESIGN.md §9): the public API is single-writer —
/// callers must not invoke mutating methods concurrently, and const
/// methods are safe to call concurrently only in the absence of writers.
/// Parallelism lives *inside* the engine: with `config.num_threads > 1`,
/// AddSnippets() shards each batch by source and identifies stories
/// concurrently (identification is per-source, §2.2 / Fig. 1b), and
/// Align() fans story-pair scoring out across the pool (§2.3). Both
/// parallel paths are deterministic — the result is bit-identical for
/// every thread count, including the serial num_threads == 1 path.
///
/// The single-writer discipline is machine-checked (DESIGN.md §13): the
/// phantom capability `serial_` models the engine's SERIAL SECTION, the
/// state only that section may touch is `SP_GUARDED_BY(serial_)`, and
/// the observer hooks are `SP_REQUIRES(serial_)` — so under Clang's
/// thread-safety analysis a parallel-path worker (or any future reader
/// thread) that touches serial-only state or fires an observer callback
/// fails to COMPILE. Fields the parallel phases do read concurrently
/// (`store_`, `df_`, `similarity_`, per-shard partitions) are documented
/// in the §13 capability table instead of guarded.
class StoryPivotEngine {
 public:
  explicit StoryPivotEngine(EngineConfig config = {});

  StoryPivotEngine(const StoryPivotEngine&) = delete;
  StoryPivotEngine& operator=(const StoryPivotEngine&) = delete;

  // --- Sources ----------------------------------------------------------

  /// Registers a data source and returns its id.
  SourceId RegisterSource(const std::string& name);

  /// Registers a source under a caller-chosen id, used when replicating
  /// another engine's state (snapshot load, WAL replay): source ids in
  /// persisted records must stay valid verbatim. Future RegisterSource
  /// ids stay clear of adopted ones. Fails when the id is taken.
  [[nodiscard]] Status AdoptSource(SourceId id, const std::string& name);

  /// Removes a source with all its snippets and stories (§2.4: "any story
  /// detection system should allow the addition or removal of data
  /// sources").
  [[nodiscard]] Status RemoveSource(SourceId source);

  const std::vector<SourceInfo>& sources() const { return sources_; }

  /// Name of a source ("<unknown>" if absent).
  const std::string& SourceName(SourceId source) const;

  // --- Extraction hooks --------------------------------------------------

  /// The entity gazetteer backing document extraction. Seed it with the
  /// entities of your domain before adding raw documents.
  text::Gazetteer* gazetteer() { return &gazetteer_; }
  const text::Gazetteer& gazetteer() const { return gazetteer_; }

  /// Imports the terms of externally built vocabularies (e.g. a generated
  /// corpus) in id order, so pre-annotated snippets can be ingested with
  /// their TermIds intact. Call before interning anything else; fails when
  /// existing ids conflict.
  [[nodiscard]] Status ImportVocabularies(const text::Vocabulary& entities,
                                          const text::Vocabulary& keywords);

  text::Vocabulary* entity_vocabulary() { return &entity_vocab_; }
  text::Vocabulary* keyword_vocabulary() { return &keyword_vocab_; }
  const text::Vocabulary& entity_vocabulary() const { return entity_vocab_; }
  const text::Vocabulary& keyword_vocabulary() const {
    return keyword_vocab_;
  }

  // --- Ingest ------------------------------------------------------------

  /// Extracts one snippet per paragraph of `document` (annotated with the
  /// document title for context) and runs story identification on each.
  /// Returns the new snippet ids.
  [[nodiscard]] Result<std::vector<SnippetId>> AddDocument(
      const Document& document);

  /// Ingests a pre-annotated snippet. Assigns an id when the snippet has
  /// none. The snippet's source must be registered, and every entity and
  /// keyword weight must be a finite number above 0; otherwise returns
  /// InvalidArgument with the engine unchanged.
  [[nodiscard]] Result<SnippetId> AddSnippet(Snippet snippet);

  /// Ingests a batch of pre-annotated snippets, identifying stories for
  /// distinct sources concurrently when the engine has a thread pool
  /// (config.num_threads > 1). Batch semantics differ from a loop of
  /// AddSnippet calls in one documented way: document-frequency
  /// statistics are updated for the whole batch up front (store and DF
  /// writes are serialized in arrival order) before any identification
  /// runs, which makes the outcome independent of how sources interleave
  /// — and therefore identical for every thread count. The batch is
  /// all-or-nothing: on any failure the engine state is rolled back and
  /// no snippet of the batch remains; sources and weights are checked as
  /// in AddSnippet before anything changes. Returns the new ids in input
  /// order.
  [[nodiscard]] Result<std::vector<SnippetId>> AddSnippets(
      std::vector<Snippet> snippets);

  /// Inserts a snippet directly into the given story of its source,
  /// bypassing story identification. Used to warm-start an engine from a
  /// snapshot of a previous run (§4.2.2: precomputed large-scale results)
  /// or to replicate another engine's state. The story is created if it
  /// does not exist; `snippet.id` may be pre-assigned. Weights are
  /// checked as in AddSnippet.
  [[nodiscard]] Result<SnippetId> AdoptAssignment(Snippet snippet,
                                                  StoryId story);

  /// Removes every snippet extracted from `url`, with story split checks.
  [[nodiscard]] Status RemoveDocument(const std::string& url);

  /// Removes one snippet, split-checking its story.
  [[nodiscard]] Status RemoveSnippet(SnippetId id);

  // --- Alignment & refinement --------------------------------------------

  /// Runs (or re-runs) story alignment across all sources and returns the
  /// result. The result stays valid until the next mutation. An owed
  /// alignment (OweAlignment) is dropped: the new one draws fresh ids.
  const AlignmentResult& Align();

  /// True when an up-to-date alignment result is available, computed or
  /// owed.
  bool has_alignment() const {
    serial_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return !stale_ && (alignment_.has_value() || owed_alignment_.has_value());
  }

  /// Last alignment result; requires has_alignment(). An owed alignment
  /// is computed here, on first read — a serial-section mutation despite
  /// the const, like every other read of the single-writer engine.
  const AlignmentResult& alignment() const;

  /// One refinement pass using the current alignment (computing it if
  /// needed, from its owed ids if it is owed), then re-aligns. The pass
  /// and the re-alignment reuse the alignment's counterpart graph, and
  /// the re-alignment recomputes only the stories the pass changed.
  /// Returns what the pass changed.
  RefinementStats Refine();

  /// Replays a logged Align() that drew `stories` integrated-story ids
  /// without computing it (DESIGN.md §10): the story-id cursor advances by
  /// `stories`, has_alignment() turns true, and the first reader —
  /// alignment(), Refine() or SettleOwedAlignment() — computes the
  /// alignment from the cursor value before the advance. The alignment is
  /// a pure function of the partitions, DF and that base, so the result
  /// equals the logged Align()'s: same stories, ids, members, roles and
  /// counterparts. Any mutation that makes the alignment stale drops an
  /// owed one uncomputed. Fails with Internal, the engine unchanged, when
  /// `stories` exceeds TotalStories() (Align() draws one id per integrated
  /// story, and each holds at least one story).
  [[nodiscard]] Status OweAlignment(uint64_t stories);

  /// Computes an owed alignment now; OK when none is owed. Fails with
  /// Internal when the computed alignment's story count differs from the
  /// owed one. The alignment is kept either way, and the id cursor moves
  /// past every id it holds, so no id is handed out twice.
  [[nodiscard]] Status SettleOwedAlignment();

  // --- Introspection -----------------------------------------------------

  /// Per-source story partition; nullptr for unknown sources.
  const StorySet* partition(SourceId source) const;

  /// All partitions, ordered by source id.
  std::vector<const StorySet*> partitions() const;

  const SnippetStore& store() const { return store_; }
  const SimilarityModel& similarity() const { return similarity_; }
  const text::DocumentFrequency& document_frequency() const { return df_; }
  const EngineConfig& config() const { return config_; }
  const EngineStats& stats() const {
    serial_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return stats_;
  }

  /// Total stories across all per-source partitions.
  size_t TotalStories() const;

  /// Attaches (or, with nullptr, detaches) the single snippet-mutation
  /// observer. The observer sees every snippet already in the engine via
  /// no replay — attach before ingesting, or rebuild from store() first
  /// (the search subsystem does the latter). The observer must outlive
  /// its registration.
  void set_ingest_observer(IngestObserver* observer) {
    serial_.AssertInSection();  // Attaching is a serial-section mutation.
    observer_ = observer;
  }
  IngestObserver* ingest_observer() const {
    serial_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return observer_;
  }

  /// The engine's monotone id counters. Snapshots persist them so a
  /// restored engine allocates the SAME future ids as the original would
  /// have — removals leave gaps that max()+1 inference cannot see, and
  /// exact id continuation is what makes WAL replay after a checkpoint
  /// restore deterministic (DESIGN.md §10).
  struct IdCounters {
    SourceId next_source = 0;
    SnippetId next_snippet = 0;
    StoryId next_story = 0;
  };
  [[nodiscard]] IdCounters id_counters() const;

  /// Fast-forwards the id counters when restoring a snapshot. Counters
  /// only move forward; a value below the current one is an error.
  [[nodiscard]] Status AdoptIdCounters(const IdCounters& counters);

 private:
  StorySet* MutablePartition(SourceId source);
  /// Removes `snippet` and split-checks the story it leaves.
  void RemoveSnippetInternal(const Snippet& snippet) SP_REQUIRES(serial_);

  /// Align(), reusing `previous` (when it has a record): the alignment
  /// over the current snippets under the current DF that this one
  /// replaces. Its graph, its per-story work and the merged views of the
  /// integrated stories left whole are taken over.
  const AlignmentResult& AlignWith(AlignmentResult previous);

  /// Frees the last alignment's counterpart graph and the reuse record
  /// that shares its allocation. Snippet mutations call it: neither
  /// matches the new snippet set and DF, and a serving engine should not
  /// hold them between writes.
  void DropCounterpartGraph() {
    if (!alignment_.has_value()) return;
    alignment_->graph.reset();
    alignment_->record.reset();
  }

  /// Marks the alignment stale after a mutation; an owed one is dropped
  /// without being computed.
  void MarkStale() SP_REQUIRES(serial_) {
    stale_ = true;
    owed_alignment_.reset();
  }

  /// Computes the owed alignment into alignment_ (see OweAlignment).
  /// Const so that alignment() can pay it; what it writes is mutable.
  [[nodiscard]] Status ComputeOwedAlignment() const SP_REQUIRES(serial_);

  // SP_REQUIRES(serial_) is the compile-time form of the IngestObserver
  // contract: callbacks fire only from the engine's serial sections.
  // Code that has not declared itself serial cannot call these.
  void NotifyAdded(const Snippet& snippet) SP_REQUIRES(serial_) {
    if (observer_ != nullptr) observer_->OnSnippetAdded(snippet);
  }
  void NotifyRemoved(const Snippet& snippet) SP_REQUIRES(serial_) {
    if (observer_ != nullptr) observer_->OnSnippetRemoved(snippet);
  }

  /// Unwinds snippets inserted by a failed multi-snippet operation
  /// (AddDocument / AddSnippets), newest first, so the operation is
  /// all-or-nothing. Stories bridged only by rolled-back snippets are
  /// split back by the split check.
  void RollbackIngested(const std::vector<SnippetId>& ids)
      SP_REQUIRES(serial_);

  /// The engine's serial-section role (a phantom capability — no
  /// runtime lock; see util/sync.h and DESIGN.md §13). Exclusive =
  /// "this context is the single writer"; every mutating method asserts
  /// it, the parallel phase-2 shards deliberately do NOT.
  // lockcheck: name=StoryPivotEngine.serial_ role
  SerialSection serial_;

  EngineConfig config_;
  text::Vocabulary entity_vocab_;
  text::Vocabulary keyword_vocab_;
  text::Gazetteer gazetteer_;
  text::AnnotationPipeline annotator_;
  /// Written only in serial sections; read concurrently (lock-free) by
  /// phase-2 identification workers via SimilarityModel. Guarded by the
  /// phase structure, not by serial_ — see the §13 capability table.
  text::DocumentFrequency df_;
  SimilarityModel similarity_;
  StoryIdentifier identifier_;
  StoryAligner aligner_;
  StoryRefiner refiner_;
  /// Like df_: serial writes, concurrent phase-2 reads (snippets are
  /// immutable once stored; the map is not resized during phase 2).
  SnippetStore store_;
  std::vector<SourceInfo> sources_;
  /// The map itself is serial-only; each phase-2 shard of AddSnippets
  /// mutates ONE StorySet through its shard's partition pointer, and
  /// shards are disjoint by source.
  std::unordered_map<SourceId, StorySet> partitions_;
  /// Next unassigned story id. Atomic so the parallel paths may read it
  /// concurrently; all stores happen in serial sections (relaxed order).
  /// Mutable for one store: an owed alignment computed by alignment()
  /// that holds ids past its owed range moves the cursor past them.
  mutable std::atomic<StoryId> next_story_id_ = 0;
  SourceId next_source_id_ SP_GUARDED_BY(serial_) = 0;
  /// Workers for AddSnippets / Align; null when num_threads <= 1.
  std::unique_ptr<ThreadPool> pool_;
  /// The computed alignment. Mutable, like owed_alignment_ and stats_,
  /// because alignment() computes an owed one on first read.
  mutable std::optional<AlignmentResult> alignment_;
  /// An alignment owed by OweAlignment(): the story-id cursor value it
  /// draws its ids from, and the story count the log recorded. Set only
  /// while the alignment is current (!stale_), and then alignment_ is
  /// empty.
  struct OwedAlignment {
    StoryId base = 0;
    uint64_t stories = 0;
  };
  mutable std::optional<OwedAlignment> owed_alignment_ SP_GUARDED_BY(serial_);
  bool stale_ SP_GUARDED_BY(serial_) = true;
  mutable EngineStats stats_ SP_GUARDED_BY(serial_);
  /// Snippet-mutation observer; nullptr when nothing is attached.
  IngestObserver* observer_ SP_GUARDED_BY(serial_) = nullptr;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_ENGINE_H_
