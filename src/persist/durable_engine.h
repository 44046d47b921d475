#ifndef STORYPIVOT_PERSIST_DURABLE_ENGINE_H_
#define STORYPIVOT_PERSIST_DURABLE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "util/status.h"
#include "util/sync.h"

namespace storypivot::persist {

struct DurabilityOptions {
  WalOptions wal;
  /// Automatically checkpoint after this many logged operations;
  /// 0 disables auto-checkpointing (call Checkpoint() yourself). A failed
  /// automatic checkpoint restarts the count.
  uint64_t checkpoint_every_ops = 0;
};

/// The engine-mutation opcodes recorded in the WAL. Part of the on-disk
/// format: append only, never renumber.
enum class WalOp : uint8_t {
  kRegisterSource = 1,
  kImportVocabularies = 2,
  kAddGazetteerEntity = 3,
  kAddGazetteerAlias = 4,
  kAddSnippet = 5,
  kAddSnippets = 6,
  kAddDocument = 7,
  kRemoveSource = 8,
  kRemoveDocument = 9,
  kRemoveSnippet = 10,
  kRefine = 11,
  kAlign = 12,
};

/// A StoryPivotEngine with a durability layer (DESIGN.md §10): every
/// mutation is appended to a write-ahead log before the call returns, the
/// engine state is periodically checkpointed via core/snapshot, and
/// `Open()` recovers the pre-crash state from the newest checkpoint plus
/// the WAL tail.
///
/// Invariants:
///   * PREFIX CONSISTENCY — after any crash, recovery yields the state of
///     some prefix of the acknowledged operation stream (how long a
///     prefix depends on the fsync policy; kEveryRecord loses nothing).
///   * DETERMINISTIC REPLAY — replaying a WAL prefix on a fresh engine
///     reproduces ids and story assignments bit for bit, for any
///     `EngineConfig::num_threads` (replay rides the engine's
///     deterministic parallel paths). Recorded result ids are verified
///     during replay, so silent divergence is caught immediately. A
///     logged Align() is owed, not recomputed (StoryPivotEngine::
///     OweAlignment): its story count is verified when the alignment is
///     first computed (DESIGN.md §10).
///   * TORN TAIL, NOT TORN STATE — a crash mid-append leaves an
///     incomplete final record, which recovery truncates away; a CRC
///     mismatch anywhere else is reported as corruption, never dropped.
///
/// Fault tolerance (DESIGN.md §12): one failure model. Any WAL append
/// failure — nothing is retried — drops the engine into read-only
/// DEGRADED mode instead of dying: queries and search keep working from
/// the in-memory state, mutations are rejected with a typed `kDegraded`
/// status, and `Reopen()` re-runs recovery from disk to rejoin the
/// log-consistent state (discarding the at-most-one mutation that
/// outran the log).
///
/// Mutations mirror the StoryPivotEngine API (plus the extraction-state
/// mutations RegisterSource/ImportVocabularies/gazetteer seeding, which
/// replay needs). Read paths go through `engine()`. Like the underlying
/// engine, single-writer — and machine-checked as such: every method
/// asserts the `writer_` serial role (DESIGN.md §13), so Clang's
/// thread-safety analysis rejects code paths that touch the degraded-mode
/// or WAL state without declaring themselves part of the serial section.
/// Why a commit hook fired (see DurableEngine::set_commit_hook).
enum class CommitEvent {
  kMutation,  ///< A mutation was durably logged and applied.
  kRecovery,  ///< Reopen() recovered to the log-consistent prefix.
};

class DurableEngine {
 public:
  /// Opens (and creates, if needed) the durability directory `dir`,
  /// recovers the newest checkpoint + WAL tail, repairs a torn tail, and
  /// opens the WAL for appending. `engine_config` supplies the runtime
  /// knobs; recovered state does not depend on it (see determinism
  /// invariant above).
  [[nodiscard]] static Result<std::unique_ptr<DurableEngine>> Open(
      const std::string& dir, DurabilityOptions options = {},
      EngineConfig engine_config = {});

  ~DurableEngine();

  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  // --- Logged mutations --------------------------------------------------

  [[nodiscard]] Result<SourceId> RegisterSource(const std::string& name);
  [[nodiscard]] Status ImportVocabularies(const text::Vocabulary& entities,
                                          const text::Vocabulary& keywords);
  [[nodiscard]] Result<text::TermId> AddGazetteerEntity(
      const std::string& canonical_name);
  [[nodiscard]] Status AddGazetteerAlias(text::TermId entity,
                                         const std::string& alias);
  [[nodiscard]] Result<SnippetId> AddSnippet(Snippet snippet);
  [[nodiscard]] Result<std::vector<SnippetId>> AddSnippets(
      std::vector<Snippet> snippets);
  [[nodiscard]] Result<std::vector<SnippetId>> AddDocument(
      const Document& document);
  [[nodiscard]] Status RemoveSource(SourceId source);
  [[nodiscard]] Status RemoveDocument(const std::string& url);
  [[nodiscard]] Status RemoveSnippet(SnippetId id);

  /// Refinement moves snippets between stories, so it is a logged
  /// mutation too (replay re-runs it at the same point in the stream,
  /// which reproduces the same moves).
  [[nodiscard]] Result<RefinementStats> Refine();

  /// Alignment is read-mostly but advances the integrated-story-id
  /// cursor, so it must be logged: an unlogged Align followed by more
  /// mutations would assign different story ids on replay. Use this, not
  /// engine().Align(), on a durable engine. The result is readable via
  /// engine().alignment().
  [[nodiscard]] Status Align();

  // --- Durability control ------------------------------------------------

  /// Rotates the WAL, writes an atomic checkpoint covering everything
  /// logged so far, and deletes the WAL segments the checkpoint covers.
  /// A failed rotation closes the WAL, so the next mutation degrades.
  [[nodiscard]] Status Checkpoint();

  /// Forces the WAL to disk regardless of the fsync policy.
  [[nodiscard]] Status Sync();

  /// Syncs and closes the WAL. Further mutations fail. Called by the
  /// destructor when omitted (ignoring errors — call Close() to see
  /// them).
  [[nodiscard]] Status Close();

  /// Recovers a DEGRADED engine in place: closes the WAL, re-runs the
  /// full recovery sequence (checkpoint + WAL tail + torn-tail repair)
  /// and, on success, resumes accepting mutations. The in-memory state
  /// is rebuilt from disk, so the unlogged mutation that triggered
  /// degradation is discarded — exactly the prefix-consistency
  /// contract. The one exception is an append whose withdraw failed
  /// too: its record may survive, so a caller that wants to re-apply
  /// the rejected op compares next_lsn() with its value before the op.
  /// A successful Reopen() replaces the engine object: references and
  /// pointers taken from engine() before it dangle. On failure the
  /// engine stays degraded on its OLD in-memory state (reads keep
  /// working) and Reopen can be called again.
  [[nodiscard]] Status Reopen();

  // --- Reads -------------------------------------------------------------

  /// The wrapped engine, for queries, alignment and introspection. Do
  /// NOT mutate it directly — unlogged mutations void the durability
  /// guarantee (they vanish on recovery and can derail replay). A
  /// successful Reopen() replaces the engine object, so fetch it again
  /// after one.
  [[nodiscard]] StoryPivotEngine& engine() {
    writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return *engine_;
  }
  [[nodiscard]] const StoryPivotEngine& engine() const {
    writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return *engine_;
  }

  /// Lsn the next mutation will get == number of ops logged ever.
  [[nodiscard]] uint64_t next_lsn() const;

  /// Ops logged since the last checkpoint (or open).
  [[nodiscard]] uint64_t ops_since_checkpoint() const {
    writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return ops_since_checkpoint_;
  }

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Installs (or, with an empty function, removes) the commit hook:
  /// fired from the serial section after every successfully logged
  /// mutation (once per op — a batch is one op, event kMutation) and
  /// after a successful Reopen() (event kRecovery). The serving tier
  /// uses it to publish a fresh read snapshot (serve/ServingEngine,
  /// DESIGN.md §14) — the event lets a batching publisher treat
  /// recovery as publish-now instead of counting it like a routine op.
  /// The hook must not call back into mutating DurableEngine methods.
  void set_commit_hook(std::function<void(CommitEvent)> hook) {
    writer_.AssertInSection();  // Serial-section mutation.
    commit_hook_ = std::move(hook);
  }

  /// True when a WAL failure put the engine into read-only degraded
  /// mode (reads served, mutations rejected with kDegraded).
  [[nodiscard]] bool degraded() const {
    writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return degraded_;
  }

  /// The failure that caused degradation (OK when not degraded).
  [[nodiscard]] const Status& degraded_cause() const {
    writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
    return degraded_cause_;
  }

  /// WAL retry count, read by perfbench's `persist.retries`. It is
  /// always 0: the WAL retries nothing, because every IO failure
  /// degrades the engine and Reopen() is the one recovery (DESIGN.md
  /// §12).
  struct WalRetryStats {
    uint64_t retries = 0;
  };
  [[nodiscard]] WalRetryStats wal_retry_stats() const { return {}; }

 private:
  DurableEngine(std::string dir, DurabilityOptions options);

  /// OK iff the engine accepts mutations: open and not degraded.
  /// Checked BEFORE applying a mutation so a rejected mutation never
  /// leaks into the in-memory state.
  [[nodiscard]] Status CheckWritable() const SP_REQUIRES(writer_);

  /// Appends an encoded op and applies the auto-checkpoint policy
  /// (best-effort: the op is already durable, so a failed auto
  /// checkpoint warns and retries after the next op). On a WAL append
  /// failure the engine degrades: the in-memory state has the mutation
  /// but the log does not, so acknowledging further logged mutations
  /// would desynchronise replay.
  [[nodiscard]] Status LogOp(std::string payload) SP_REQUIRES(writer_);

  /// The full recovery sequence (newest checkpoint + WAL tail replay +
  /// torn-tail repair + WAL open), built into locals and committed to
  /// members only on success — a failed recovery leaves the previous
  /// in-memory state readable. Shared by Open() and Reopen().
  [[nodiscard]] Status Recover() SP_REQUIRES(writer_);

  /// Decodes and re-applies one WAL record during recovery, verifying
  /// recorded result ids.
  [[nodiscard]] Status ReplayOp(const WalRecord& record,
                                StoryPivotEngine* engine);

  /// Phantom capability for the single-writer serial section (DESIGN.md
  /// §13). Guards the degraded-mode flags and the WAL handle: the two
  /// pieces of state whose desynchronisation would break the durability
  /// contract if a second writer ever raced them.
  // lockcheck: name=DurableEngine.writer_ role
  SerialSection writer_;
  /// Immutable after construction; safe to read without the role.
  std::string dir_;
  DurabilityOptions options_;
  EngineConfig engine_config_;
  std::unique_ptr<StoryPivotEngine> engine_ SP_GUARDED_BY(writer_);
  std::unique_ptr<WriteAheadLog> wal_ SP_GUARDED_BY(writer_);
  Checkpointer checkpointer_;
  uint64_t ops_since_checkpoint_ SP_GUARDED_BY(writer_) = 0;
  bool degraded_ SP_GUARDED_BY(writer_) = false;
  Status degraded_cause_ SP_GUARDED_BY(writer_);
  /// Post-commit notification (see set_commit_hook); empty when unset.
  std::function<void(CommitEvent)> commit_hook_ SP_GUARDED_BY(writer_);
};

}  // namespace storypivot::persist

#endif  // STORYPIVOT_PERSIST_DURABLE_ENGINE_H_
