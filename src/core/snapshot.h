#ifndef STORYPIVOT_CORE_SNAPSHOT_H_
#define STORYPIVOT_CORE_SNAPSHOT_H_

#include <memory>
#include <string>

#include "core/engine.h"
#include "util/status.h"

namespace storypivot {

/// Serialises an engine's detection state — sources, vocabularies,
/// gazetteer aliases, and every snippet together with its per-source
/// story assignment — to a versioned TSV format (current version: v2).
/// This is how the demonstration serves precomputed large-scale results
/// (§4.2.2): run detection offline, snapshot, and let the interactive
/// frontend load the snapshot instantly. It is also the checkpoint format
/// of the durability subsystem (DESIGN.md §10).
///
/// The output is canonical: two engines with identical state serialise to
/// identical bytes, and Save(Load(Save(e))) == Save(e) byte for byte.
/// Every row is appended to one string; numbers are printed by
/// std::to_chars, so a term weight is the shortest text that reads back
/// to the same double (exact, unlike the %g text of earlier writers, which
/// kept 6 significant digits; for integer weights below 1e5 the two are
/// the same bytes).
///
/// The alignment result is not persisted: it is derived state. A loaded
/// engine has none until `Align()` runs, and that costs more than the
/// load itself (a full alignment, counterpart graph included), which is
/// why WAL recovery owes a logged alignment instead of recomputing it
/// (DESIGN.md §10).
[[nodiscard]] std::string SaveSnapshot(const StoryPivotEngine& engine);

/// Atomically writes `SaveSnapshot(engine)` to `path` (temp file + fsync
/// + rename): a crash mid-save leaves the previous snapshot intact, never
/// a torn file.
[[nodiscard]] Status SaveSnapshotToFile(const StoryPivotEngine& engine,
                                        const std::string& path);

/// Reconstructs an engine from snapshot `contents`, using `config` for
/// all runtime knobs (the snapshot stores state, not configuration).
/// Source, story and snippet ids are all preserved verbatim — write-ahead
///-log records replayed on top of a loaded checkpoint reference them —
/// and future automatically assigned ids stay clear of adopted ones.
/// Accepts v1 (no gazetteer rows) and v2 snapshots, including the %g
/// weight text (e.g. `1e+06`) of earlier writers. Rows are read in one
/// pass, as views over `contents`.
[[nodiscard]] Result<std::unique_ptr<StoryPivotEngine>> LoadSnapshot(
    const std::string& contents, EngineConfig config = {});

/// Reads and reconstructs from a file.
[[nodiscard]] Result<std::unique_ptr<StoryPivotEngine>> LoadSnapshotFromFile(
    const std::string& path, EngineConfig config = {});

/// Order-independent 64-bit fingerprint of the engine's detection state:
/// every (source, snippet, story) assignment triple. Two engines with the
/// same fingerprint hold the same per-source story partitions. Used by
/// the parallel-determinism bench and the crash-recovery test harness to
/// compare a recovered engine against a freshly built one.
[[nodiscard]] uint64_t EngineStateFingerprint(const StoryPivotEngine& engine);

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_SNAPSHOT_H_
