#include "core/parallel_ingest.h"

#include "util/logging.h"
#include "util/timer.h"

namespace storypivot {

void ParallelIngestor::RunShard(const IngestShard& shard,
                                const SnippetStore& store,
                                IngestShardResult* result) const {
  SP_CHECK(shard.partition != nullptr);
  WallTimer timer;
  StoryId cursor = shard.story_id_begin;
  const StoryId block_end = shard.story_id_begin + shard.snippets.size();
  for (const Snippet* snippet : shard.snippets) {
    SP_CHECK(snippet != nullptr);
    identifier_->Identify(*snippet, shard.partition, store, &cursor);
    SP_CHECK(cursor <= block_end);
  }
  result->identify_time_ms = timer.ElapsedMillis();
}

std::vector<IngestShardResult> ParallelIngestor::Run(
    const std::vector<IngestShard>& shards, const SnippetStore& store) const {
  std::vector<IngestShardResult> results(shards.size());
  if (shards.empty()) return results;
  if (pool_ == nullptr || pool_->num_threads() <= 1 || shards.size() == 1) {
    for (size_t i = 0; i < shards.size(); ++i) {
      RunShard(shards[i], store, &results[i]);
    }
    return results;
  }
  // One chunk per shard: a shard is the unit of sequential work, and
  // sources are few — finer decomposition is impossible without changing
  // identification semantics.
  pool_->ParallelFor(shards.size(), shards.size(),
                     [&](size_t, size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         RunShard(shards[i], store, &results[i]);
                       }
                     });
  return results;
}

}  // namespace storypivot
