#ifndef STORYPIVOT_CORE_PARALLEL_INGEST_H_
#define STORYPIVOT_CORE_PARALLEL_INGEST_H_

#include <vector>

#include "core/identifier.h"
#include "core/story_set.h"
#include "model/ids.h"
#include "model/snippet.h"
#include "storage/snippet_store.h"
#include "util/thread_pool.h"

namespace storypivot {

/// One per-source unit of parallel story identification: the snippets of
/// one source (already inserted into the snippet store, in arrival
/// order), the partition they mutate, and a private, pre-reserved block
/// of story ids.
struct IngestShard {
  SourceId source = kInvalidSourceId;
  StorySet* partition = nullptr;
  /// The shard's snippets in arrival order (pointers into the store).
  std::vector<const Snippet*> snippets;
  /// First id of the shard's story-id block. The block spans
  /// [story_id_begin, story_id_begin + snippets.size()): one id per
  /// snippet is the worst case (every snippet opens a new story), and
  /// block assignment depends only on the batch contents, so ids are
  /// identical for every thread count. Unused ids are simply skipped.
  StoryId story_id_begin = 0;
};

/// What identifying one shard produced.
struct IngestShardResult {
  /// Wall-clock this shard spent in identification, on whichever thread
  /// ran it. Summed serially into EngineStats::identify_cpu_ms.
  double identify_time_ms = 0.0;
};

/// Fans per-source story identification out across a thread pool (§2.2 is
/// per-source, hence embarrassingly parallel across sources). Each shard
/// runs its source's snippets through StoryIdentifier::Identify
/// sequentially — identification order within a source is part of the
/// algorithm — while distinct sources proceed concurrently.
///
/// Shards own disjoint mutable state (their partition and story-id
/// block); the snippet store and document-frequency table are
/// frozen for the duration of the run (all writes happen in the engine's
/// serial ingest prologue). The identifier is shared read-only: Identify
/// is const and keeps no per-call state. Results are therefore
/// bit-identical for every thread count.
class ParallelIngestor {
 public:
  /// `pool` may be nullptr for the serial path.
  ParallelIngestor(const StoryIdentifier* identifier, ThreadPool* pool)
      : identifier_(identifier), pool_(pool) {}

  ParallelIngestor(const ParallelIngestor&) = delete;
  ParallelIngestor& operator=(const ParallelIngestor&) = delete;

  /// Identifies every shard's snippets; one task per shard. Shards must
  /// reference distinct sources. Results are indexed like `shards`.
  std::vector<IngestShardResult> Run(const std::vector<IngestShard>& shards,
                                     const SnippetStore& store) const;

 private:
  void RunShard(const IngestShard& shard, const SnippetStore& store,
                IngestShardResult* result) const;

  const StoryIdentifier* identifier_;
  ThreadPool* pool_;
};

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_PARALLEL_INGEST_H_
