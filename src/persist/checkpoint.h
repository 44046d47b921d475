#ifndef STORYPIVOT_PERSIST_CHECKPOINT_H_
#define STORYPIVOT_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/snapshot.h"
#include "util/status.h"

namespace storypivot::persist {

/// Writes and loads engine checkpoints in a durability directory.
///
/// A checkpoint is a `core/snapshot` of the full engine state, written
/// ATOMICALLY (temp file + fsync + rename, via util/fs) under the name
/// `checkpoint-<covered lsn, 20 digits>.sp`: the snapshot captures every
/// operation with lsn < covered lsn, so recovery loads the newest valid
/// checkpoint and replays only the WAL tail from that lsn on.
///
/// Because the rename is atomic a torn checkpoint cannot exist; a
/// checkpoint that fails to parse means post-write corruption, and
/// LoadNewest falls back to the next older one — which is why Write
/// keeps the newest two.
class Checkpointer {
 public:
  /// `dir` is the durability directory (shared with the WAL).
  explicit Checkpointer(std::string dir);

  /// File name of the checkpoint covering lsns < `covered_lsn`.
  [[nodiscard]] static std::string CheckpointName(uint64_t covered_lsn);

  /// Parses a checkpoint file name into its covered lsn.
  [[nodiscard]] static Result<uint64_t> ParseCheckpointName(
      const std::string& name);

  /// Covered lsns of the checkpoints present in the directory, ascending.
  [[nodiscard]] Result<std::vector<uint64_t>> List() const;

  /// Atomically writes a checkpoint of `engine` covering lsns
  /// < `covered_lsn`, then prunes all but the newest two checkpoints.
  [[nodiscard]] Status Write(const StoryPivotEngine& engine,
                             uint64_t covered_lsn);

  struct Loaded {
    /// Null when the directory holds no checkpoint: recover from lsn 0.
    std::unique_ptr<StoryPivotEngine> engine;
    uint64_t covered_lsn = 0;
  };

  /// Loads the newest checkpoint that parses, falling back to older ones
  /// on corruption (each fallback is logged). Only when every present
  /// checkpoint is corrupt does it return an error.
  [[nodiscard]] Result<Loaded> LoadNewest(EngineConfig config) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace storypivot::persist

#endif  // STORYPIVOT_PERSIST_CHECKPOINT_H_
