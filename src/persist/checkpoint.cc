#include "persist/checkpoint.h"

#include <algorithm>

#include "util/failpoint.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/strings.h"

namespace storypivot::persist {
namespace {

constexpr const char kCheckpointPrefix[] = "checkpoint-";
constexpr const char kCheckpointSuffix[] = ".sp";
/// Newest checkpoints kept on disk: the second is the fallback should
/// the newest one be corrupted after the fact.
constexpr size_t kKeepCheckpoints = 2;

}  // namespace

Checkpointer::Checkpointer(std::string dir) : dir_(std::move(dir)) {}

std::string Checkpointer::CheckpointName(uint64_t covered_lsn) {
  return StrFormat("%s%020llu%s", kCheckpointPrefix,
                   static_cast<unsigned long long>(covered_lsn),
                   kCheckpointSuffix);
}

Result<uint64_t> Checkpointer::ParseCheckpointName(const std::string& name) {
  const size_t prefix = sizeof(kCheckpointPrefix) - 1;
  const size_t suffix = sizeof(kCheckpointSuffix) - 1;
  if (name.size() <= prefix + suffix ||
      name.substr(0, prefix) != kCheckpointPrefix ||
      name.substr(name.size() - suffix) != kCheckpointSuffix) {
    return Status::InvalidArgument("not a checkpoint name: " + name);
  }
  std::string_view digits(name.data() + prefix,
                          name.size() - prefix - suffix);
  int64_t lsn = 0;
  if (!ParseInt64(digits, &lsn) || lsn < 0) {
    return Status::InvalidArgument("bad checkpoint number: " + name);
  }
  return static_cast<uint64_t>(lsn);
}

Result<std::vector<uint64_t>> Checkpointer::List() const {
  if (!FileExists(dir_)) return std::vector<uint64_t>{};
  ASSIGN_OR_RETURN(std::vector<std::string> names, ListDirectory(dir_));
  std::vector<uint64_t> lsns;
  for (const std::string& name : names) {
    Result<uint64_t> lsn = ParseCheckpointName(name);
    if (lsn.ok()) lsns.push_back(lsn.value());
  }
  std::sort(lsns.begin(), lsns.end());
  return lsns;
}

Status Checkpointer::Write(const StoryPivotEngine& engine,
                           uint64_t covered_lsn) {
  SP_FAILPOINT("checkpoint.write");
  RETURN_IF_ERROR(CreateDirectories(dir_));
  // WriteStringToFile is atomic (tmp + fsync + rename + dir sync): a
  // crash at any instant leaves either no new checkpoint or a complete
  // one — never a torn file, which is what makes checkpoints trustworthy
  // during recovery.
  RETURN_IF_ERROR(WriteStringToFile(dir_ + "/" + CheckpointName(covered_lsn),
                                    SaveSnapshot(engine)));
  // Prune old checkpoints, newest kKeepCheckpoints survive.
  SP_FAILPOINT("checkpoint.prune");
  ASSIGN_OR_RETURN(std::vector<uint64_t> lsns, List());
  if (lsns.size() > kKeepCheckpoints) {
    for (size_t i = 0; i + kKeepCheckpoints < lsns.size(); ++i) {
      RETURN_IF_ERROR(RemoveFile(dir_ + "/" + CheckpointName(lsns[i])));
    }
    RETURN_IF_ERROR(SyncDirectory(dir_));
  }
  return Status::OK();
}

Result<Checkpointer::Loaded> Checkpointer::LoadNewest(
    EngineConfig config) const {
  ASSIGN_OR_RETURN(std::vector<uint64_t> lsns, List());
  std::string failures;
  for (size_t i = lsns.size(); i-- > 0;) {
    const std::string path = dir_ + "/" + CheckpointName(lsns[i]);
    Result<std::string> contents = ReadFileToString(path);
    Result<std::unique_ptr<StoryPivotEngine>> engine =
        contents.ok() ? LoadSnapshot(contents.value(), config)
                      : Result<std::unique_ptr<StoryPivotEngine>>(
                            contents.status());
    if (engine.ok()) {
      if (i + 1 != lsns.size()) {
        SP_LOG(kWarning) << "recovered from older checkpoint " << path
                         << " after: " << failures;
      }
      Loaded loaded;
      loaded.engine = std::move(engine).value();
      loaded.covered_lsn = lsns[i];
      return loaded;
    }
    if (!failures.empty()) failures += "; ";
    failures += path + ": " + engine.status().ToString();
  }
  if (!lsns.empty()) {
    return Status::IoError("every checkpoint is unreadable: " + failures);
  }
  return Loaded{};  // No checkpoint: recover from the start of the WAL.
}

}  // namespace storypivot::persist
