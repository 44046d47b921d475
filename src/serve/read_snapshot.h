#ifndef STORYPIVOT_SERVE_READ_SNAPSHOT_H_
#define STORYPIVOT_SERVE_READ_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/story_set.h"
#include "model/document.h"
#include "search/postings_index.h"
#include "search/query_pipeline.h"
#include "search/ranker.h"
#include "search/story_view.h"
#include "text/gazetteer.h"
#include "text/vocabulary.h"

namespace storypivot::serve {

/// The text state a snapshot parses queries against: vocabularies plus
/// the gazetteer rebuilt over them. Immutable once built; consecutive
/// snapshots share one TextState for as long as the live text state has
/// not grown (vocabularies and the alias journal are append-only within
/// an engine lifetime, so equal sizes imply identical content).
struct TextState {
  text::Vocabulary entity_vocab;
  text::Vocabulary keyword_vocab;
  /// Points at entity_vocab above, hence the heap box (TextState itself
  /// lives behind a shared_ptr and never moves).
  std::unique_ptr<text::Gazetteer> gazetteer;
};

/// Cross-capture cache owned by the publisher (ServingEngine). Tracks
/// the sizes the last TextState was built at and rebuilds only when the
/// live engine's text state has grown past them — the common per-op
/// publish reuses the cached TextState at zero cost.
class CaptureContext {
 public:
  /// Returns a TextState matching `engine`'s current text state,
  /// rebuilding iff the cached one is stale. Serial-section only.
  std::shared_ptr<const TextState> GetOrRebuild(
      const StoryPivotEngine& engine);

 private:
  std::shared_ptr<const TextState> cached_;
  size_t entity_size_ = 0;
  size_t keyword_size_ = 0;
  size_t alias_count_ = 0;
};

/// An immutable, self-contained view of everything the read path needs:
/// frozen story partitions, shared text state (vocabularies + gazetteer,
/// so query parsing canonicalizes against the snapshot, not the moving
/// live engine) and a frozen PostingsIndex. Exploits the PR-4 invariant
/// that index state is a pure function of the live snippet set — the
/// capture is an exact, reproducible freeze of the serial engine at one
/// acked prefix, so reads pinned to a snapshot are byte-identical to a
/// serial engine at that prefix (DESIGN.md §14).
///
/// The freeze is copy-on-write (DESIGN.md §15): Capture() structurally
/// shares posting lists, partitions and text state with the live engine
/// in O(partitions) pointer copies, and the writer's later mutations
/// copy away from the shared nodes instead of touching them. That
/// writer cost is not bounded by the ops since the last publish: the
/// first post to a term after a capture clones the term's whole posting
/// list (§15 has the measured bytes).
///
/// Snapshots are immutable after capture and therefore safe to read
/// from any number of threads concurrently with no synchronization;
/// lifetime is managed by EpochManager via shared_ptr (readers pin, the
/// last unpin reclaims). The epoch number is stamped by EpochManager at
/// publish time.
class ReadSnapshot {
 public:
  /// Captures a frozen view by structural sharing, O(partitions) pointer
  /// copies (DESIGN.md §15). Must run
  /// inside the writer's serial section (it reads serial-guarded engine
  /// state; the caller holds the role — commit hooks and factories do).
  /// `context` carries the text-state cache across captures; it must
  /// outlive the call but not the snapshot.
  [[nodiscard]] static std::unique_ptr<ReadSnapshot> Capture(
      const StoryPivotEngine& engine, const search::PostingsIndex& index,
      CaptureContext* context);

  /// Convenience overload with a throwaway context (tests, one-shot
  /// captures): still O(partitions) for the indexes, but rebuilds the text
  /// state every call.
  [[nodiscard]] static std::unique_ptr<ReadSnapshot> Capture(
      const StoryPivotEngine& engine, const search::PostingsIndex& index);

  // Self-referential (gazetteer -> entity_vocab, corpus_ ->
  // partitions_): address identity must be stable, so no copies or
  // moves — snapshots live behind pointers.
  ReadSnapshot(const ReadSnapshot&) = delete;
  ReadSnapshot& operator=(const ReadSnapshot&) = delete;

  /// Epoch this snapshot was published as (EpochManager stamps it).
  [[nodiscard]] uint64_t epoch() const { return epoch_; }

  /// Canonicalizes a free-text query against the SNAPSHOT text state
  /// (same pipeline as SearchEngine::Parse — see query_pipeline.h).
  [[nodiscard]] search::ParsedQuery Parse(std::string_view query) const;

  /// Ranked BM25 top-k over the snapshot (same kernel as
  /// SearchEngine::Search; byte-identical on equal state).
  [[nodiscard]] std::vector<search::StoryHit> Search(
      const search::ParsedQuery& query,
      const search::SearchOptions& options = {}) const;
  [[nodiscard]] std::vector<search::StoryHit> Search(
      std::string_view query,
      const search::SearchOptions& options = {}) const;

  [[nodiscard]] const search::PostingsIndex& index() const { return index_; }
  [[nodiscard]] const search::StoryCorpus& corpus() const { return corpus_; }
  [[nodiscard]] const std::vector<SourceInfo>& sources() const {
    return sources_;
  }
  [[nodiscard]] size_t total_stories() const { return corpus_.total_stories; }

  /// O(partitions) estimate of the snapshot's logical resident size
  /// (used with the cow copy counters to report bytes shared vs copied
  /// per publish).
  [[nodiscard]] size_t ApproxBytes() const;

 private:
  ReadSnapshot() = default;

  friend class EpochManager;  // Stamps epoch_ at publish time.

  uint64_t epoch_ = 0;
  /// Shared with the publisher's CaptureContext (and other snapshots)
  /// until the live text state grows; immutable either way.
  std::shared_ptr<const TextState> text_;
  search::PostingsIndex index_;
  /// Frozen partitions, in engine partition order.
  std::vector<StorySet> partitions_;
  /// View over partitions_ (owned above, so the pointers never dangle).
  search::StoryCorpus corpus_;
  std::vector<SourceInfo> sources_;
};

}  // namespace storypivot::serve

#endif  // STORYPIVOT_SERVE_READ_SNAPSHOT_H_
