#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot {
namespace {

/// Refuses a snippet with an entity or keyword weight that is not a
/// finite number above 0. Similarity is exactly 0 on disjoint supports
/// only for such weights (identification skips those kernels), and a NaN
/// score would pass every threshold test it is compared against.
Status CheckTermWeights(const Snippet& snippet) {
  for (const text::TermVector* terms :
       {&snippet.entities, &snippet.keywords}) {
    for (const auto& [term, weight] : terms->entries()) {
      if (!std::isfinite(weight) || weight <= 0.0) {
        // A snippet without an id yet is named by its document.
        const std::string name =
            snippet.id != kInvalidSnippetId
                ? StrFormat("snippet %llu",
                            static_cast<unsigned long long>(snippet.id))
                : "new snippet of document '" + snippet.document_url + "'";
        return Status::InvalidArgument(StrFormat(
            "%s: %s weight %g of term %u is not a finite number above 0",
            name.c_str(), terms == &snippet.entities ? "entity" : "keyword",
            weight, term));
      }
    }
  }
  return Status::OK();
}

/// Reports an owed alignment that did not match its log record. Only a
/// log this engine would not have written gets there, and the reader that
/// paid the alignment has no status to return, so it is logged.
void LogIfFailed(const Status& status) {
  if (!status.ok()) SP_LOG(kError) << status.ToString();
}

}  // namespace

EngineConfig NewsProseEngineConfig() {
  EngineConfig config;
  config.identifier.window = 45 * kSecondsPerDay;
  config.similarity.assign_threshold = 0.18;
  config.similarity.merge_threshold = 0.40;
  config.alignment.align_threshold = 0.25;
  config.alignment.pair_threshold = 0.25;
  return config;
}

StoryPivotEngine::StoryPivotEngine(EngineConfig config)
    : config_(config),
      gazetteer_(&entity_vocab_),
      annotator_(&gazetteer_, &keyword_vocab_),
      similarity_(config_.similarity, &df_),
      identifier_(&similarity_, config_.mode, config_.identifier),
      aligner_(&similarity_, config_.alignment),
      refiner_(&similarity_) {
  // Counterpart candidates come only from snippet pairs sharing a term;
  // pairs sharing none score exactly 0, which only a positive threshold
  // excludes.
  SP_CHECK(config_.alignment.pair_threshold > 0.0 &&
           "counterpart candidate pruning needs pair_threshold > 0");
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
}

SourceId StoryPivotEngine::RegisterSource(const std::string& name) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  SourceId id = next_source_id_++;
  sources_.push_back({id, name});
  partitions_.emplace(id, StorySet(id));
  MarkStale();
  return id;
}

Status StoryPivotEngine::AdoptSource(SourceId id, const std::string& name) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  if (id == kInvalidSourceId) {
    return Status::InvalidArgument("cannot adopt the invalid source id");
  }
  if (partitions_.contains(id)) {
    return Status::AlreadyExists(StrFormat("source %u", id));
  }
  sources_.push_back({id, name});
  partitions_.emplace(id, StorySet(id));
  next_source_id_ = std::max(next_source_id_, id + 1);
  MarkStale();
  return Status::OK();
}

StoryPivotEngine::IdCounters StoryPivotEngine::id_counters() const {
  serial_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  return {next_source_id_, store_.next_id(),
          next_story_id_.load(std::memory_order_relaxed)};
}

Status StoryPivotEngine::AdoptIdCounters(const IdCounters& counters) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  if (counters.next_source < next_source_id_ ||
      counters.next_snippet < store_.next_id() ||
      counters.next_story < next_story_id_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("id counters may only move forward");
  }
  next_source_id_ = counters.next_source;
  store_.AdoptNextId(counters.next_snippet);
  next_story_id_.store(counters.next_story, std::memory_order_relaxed);
  return Status::OK();
}

Status StoryPivotEngine::RemoveSource(SourceId source) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  auto it = partitions_.find(source);
  if (it == partitions_.end()) {
    return Status::NotFound(StrFormat("source %u", source));
  }
  // Remove all snippets of the source from the global structures.
  std::vector<SnippetId> ids;
  ids.reserve(it->second.snippet_times().size());
  it->second.snippet_times().ForEach(
      [&ids](Timestamp, SnippetId sid) { ids.push_back(sid); });
  for (SnippetId sid : ids) {
    const Snippet* snippet = store_.Find(sid);
    SP_CHECK(snippet != nullptr);
    df_.RemoveDocument(snippet->keywords);
    Snippet copy = *snippet;  // Remove() invalidates the pointer.
    SP_CHECK_OK(store_.Remove(sid));
    NotifyRemoved(copy);
    ++stats_.snippets_removed;
  }
  partitions_.erase(it);
  std::erase_if(sources_,
                [source](const SourceInfo& s) { return s.id == source; });
  DropCounterpartGraph();
  MarkStale();
  return Status::OK();
}

const std::string& StoryPivotEngine::SourceName(SourceId source) const {
  static const std::string& unknown = *new std::string("<unknown>");
  for (const SourceInfo& info : sources_) {
    if (info.id == source) return info.name;
  }
  return unknown;
}

Status StoryPivotEngine::ImportVocabularies(
    const text::Vocabulary& entities, const text::Vocabulary& keywords) {
  auto import = [](const text::Vocabulary& from, text::Vocabulary* to) {
    for (text::TermId id = 0; id < from.size(); ++id) {
      text::TermId got = to->Intern(from.TermOf(id));
      if (got != id) {
        return Status::FailedPrecondition(StrFormat(
            "term '%s' maps to id %u, expected %u — import vocabularies "
            "before interning anything else",
            from.TermOf(id).c_str(), got, id));
      }
    }
    return Status::OK();
  };
  RETURN_IF_ERROR(import(entities, &entity_vocab_));
  return import(keywords, &keyword_vocab_);
}

Result<std::vector<SnippetId>> StoryPivotEngine::AddDocument(
    const Document& document) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  if (!partitions_.contains(document.source)) {
    return Status::InvalidArgument(
        StrFormat("unregistered source %u", document.source));
  }
  std::vector<SnippetId> ids;
  // The title is the strongest topical signal of a document; annotate it
  // once and fold it into every paragraph excerpt with double weight
  // (standard title-boosting, and it keeps one document's excerpts — and
  // same-story headlines across documents — coherent).
  text::Annotation title = annotator_.Annotate(document.title);
  for (const std::string& paragraph : document.paragraphs) {
    text::Annotation annotation = annotator_.Annotate(paragraph);
    annotation.entities.Merge(title.entities, 2.0);
    annotation.keywords.Merge(title.keywords, 2.0);
    Snippet snippet;
    snippet.source = document.source;
    snippet.timestamp = document.timestamp;
    snippet.document_url = document.url;
    snippet.event_type = document.event_type;
    snippet.description = document.title;
    snippet.entities = std::move(annotation.entities);
    snippet.keywords = std::move(annotation.keywords);
    snippet.truth_story = document.truth_story;
    Result<SnippetId> id = AddSnippet(std::move(snippet));
    if (!id.ok()) {
      // All-or-nothing (§2.4 removal semantics apply to failed adds too):
      // a partially ingested document would leave orphan paragraphs that
      // no RemoveDocument(url) of the caller can see consistently, and
      // `documents_ingested` would undercount them forever.
      RollbackIngested(ids);
      return id.status();
    }
    ids.push_back(id.value());
  }
  ++stats_.documents_ingested;
  return ids;
}

void StoryPivotEngine::RollbackIngested(const std::vector<SnippetId>& ids) {
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const Snippet* snippet = store_.Find(*it);
    SP_CHECK(snippet != nullptr);
    Snippet copy = *snippet;  // RemoveSnippetInternal invalidates the ptr.
    RemoveSnippetInternal(copy);
  }
}

Result<SnippetId> StoryPivotEngine::AddSnippet(Snippet snippet) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  StorySet* partition = MutablePartition(snippet.source);
  if (partition == nullptr) {
    return Status::InvalidArgument(
        StrFormat("unregistered source %u", snippet.source));
  }
  RETURN_IF_ERROR(CheckTermWeights(snippet));
  Result<SnippetId> inserted = store_.Insert(std::move(snippet));
  if (!inserted.ok()) return inserted.status();
  SnippetId id = inserted.value();
  const Snippet* stored = store_.Find(id);
  SP_CHECK(stored != nullptr);

  df_.AddDocument(stored->keywords);

  WallTimer timer;
  StoryId cursor = next_story_id_.load(std::memory_order_relaxed);
  identifier_.Identify(*stored, partition, store_, &cursor);
  next_story_id_.store(cursor, std::memory_order_relaxed);
  const double identify_ms = timer.ElapsedMillis();
  stats_.identify_time_ms += identify_ms;
  stats_.identify_cpu_ms += identify_ms;
  ++stats_.snippets_ingested;
  DropCounterpartGraph();
  MarkStale();
  NotifyAdded(*stored);
  return id;
}

Result<std::vector<SnippetId>> StoryPivotEngine::AddSnippets(
    std::vector<Snippet> snippets) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  std::vector<SnippetId> ids;
  if (snippets.empty()) return ids;
  ids.reserve(snippets.size());
  for (const Snippet& snippet : snippets) {
    if (!partitions_.contains(snippet.source)) {
      return Status::InvalidArgument(
          StrFormat("unregistered source %u", snippet.source));
    }
    RETURN_IF_ERROR(CheckTermWeights(snippet));
  }

  // Phase 1 — serialized writes: insert every snippet into the store and
  // the document-frequency table in arrival order. Identification then
  // runs against corpus statistics that are frozen for the whole batch,
  // which is what makes phase 2 independent of source interleaving (and
  // of thread count). Rolls back on failure: the batch is all-or-nothing.
  std::vector<const Snippet*> stored;
  stored.reserve(snippets.size());
  for (Snippet& snippet : snippets) {
    Result<SnippetId> inserted = store_.Insert(std::move(snippet));
    if (!inserted.ok()) {
      for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
        const Snippet* undo = store_.Find(*it);
        SP_CHECK(undo != nullptr);
        df_.RemoveDocument(undo->keywords);
        SP_CHECK_OK(store_.Remove(*it));
      }
      // The store and DF are back to their pre-batch state, so the last
      // alignment and its counterpart graph still hold.
      return inserted.status();
    }
    ids.push_back(inserted.value());
    const Snippet* ptr = store_.Find(inserted.value());
    SP_CHECK(ptr != nullptr);
    df_.AddDocument(ptr->keywords);
    stored.push_back(ptr);
  }

  // Phase 2 — shard by source (ascending source id) and identify shards
  // concurrently: identification is per source (§2.2). Each shard owns
  // its partition and a private story-id block, so shards share no
  // mutable state; block layout depends only on the batch contents,
  // keeping story ids deterministic across thread counts. The store and
  // DF stay frozen until the epilogue, and Identify is const, so every
  // shard reads the same identifier.
  struct Shard {
    SourceId source = kInvalidSourceId;
    StorySet* partition = nullptr;
    /// The shard's snippets in arrival order (pointers into the store).
    std::vector<const Snippet*> snippets;
    /// The block is [story_id_begin, story_id_begin + snippets.size()):
    /// one id per snippet is the worst case (every snippet opens a new
    /// story). Unused ids are skipped.
    StoryId story_id_begin = 0;
    /// Time identification took, on whichever thread ran the shard.
    double identify_ms = 0.0;
  };
  std::vector<Shard> shards;
  std::unordered_map<SourceId, size_t> shard_of;
  for (const Snippet* snippet : stored) {
    auto [it, inserted] = shard_of.emplace(snippet->source, shards.size());
    if (inserted) {
      Shard shard;
      shard.source = snippet->source;
      shard.partition = MutablePartition(snippet->source);
      SP_CHECK(shard.partition != nullptr);
      shards.push_back(std::move(shard));
    }
    shards[it->second].snippets.push_back(snippet);
  }
  std::sort(shards.begin(), shards.end(),
            [](const Shard& a, const Shard& b) { return a.source < b.source; });
  const StoryId block_base = next_story_id_.load(std::memory_order_relaxed);
  StoryId offset = 0;
  for (Shard& shard : shards) {
    shard.story_id_begin = block_base + offset;
    offset += shard.snippets.size();
  }

  // One chunk per shard: identification order within a source is part of
  // the algorithm, so a shard is the unit of sequential work. Workers
  // write only their own shards; stats_ waits for the serial epilogue.
  auto identify = [this, &shards](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Shard& shard = shards[i];
      WallTimer shard_timer;
      StoryId cursor = shard.story_id_begin;
      const StoryId block_end = shard.story_id_begin + shard.snippets.size();
      for (const Snippet* snippet : shard.snippets) {
        identifier_.Identify(*snippet, shard.partition, store_, &cursor);
        SP_CHECK(cursor <= block_end);
      }
      shard.identify_ms = shard_timer.ElapsedMillis();
    }
  };
  WallTimer timer;
  if (pool_ != nullptr) {
    pool_->ParallelFor(shards.size(), shards.size(), identify);
  } else {
    identify(0, 0, shards.size());
  }
  const double batch_wall_ms = timer.ElapsedMillis();

  // Serial epilogue: advance the id space past every shard's block and
  // merge per-shard outcomes in shard order (deterministic).
  next_story_id_.store(block_base + offset, std::memory_order_relaxed);
  stats_.identify_time_ms += batch_wall_ms;
  for (const Shard& shard : shards) stats_.identify_cpu_ms += shard.identify_ms;
  stats_.snippets_ingested += stored.size();
  DropCounterpartGraph();
  MarkStale();
  // Observer notifications happen in the serial epilogue, in arrival
  // order — identical for every thread count.
  for (const Snippet* snippet : stored) NotifyAdded(*snippet);
  return ids;
}

Result<SnippetId> StoryPivotEngine::AdoptAssignment(Snippet snippet,
                                                    StoryId story) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  StorySet* partition = MutablePartition(snippet.source);
  if (partition == nullptr) {
    return Status::InvalidArgument(
        StrFormat("unregistered source %u", snippet.source));
  }
  RETURN_IF_ERROR(CheckTermWeights(snippet));
  Result<SnippetId> inserted = store_.Insert(std::move(snippet));
  if (!inserted.ok()) return inserted.status();
  SnippetId id = inserted.value();
  const Snippet* stored = store_.Find(id);
  SP_CHECK(stored != nullptr);

  df_.AddDocument(stored->keywords);
  if (partition->FindStory(story) == nullptr) {
    partition->CreateStory(story);
  }
  partition->AddSnippetToStory(*stored, story);
  next_story_id_.store(
      std::max(next_story_id_.load(std::memory_order_relaxed), story + 1),
      std::memory_order_relaxed);
  ++stats_.snippets_ingested;
  DropCounterpartGraph();
  MarkStale();
  NotifyAdded(*stored);
  return id;
}

void StoryPivotEngine::RemoveSnippetInternal(const Snippet& snippet) {
  StorySet* partition = MutablePartition(snippet.source);
  SP_CHECK(partition != nullptr);
  StoryId story_id = partition->StoryOf(snippet.id);
  df_.RemoveDocument(snippet.keywords);
  partition->RemoveSnippet(snippet, store_);
  SnippetId id = snippet.id;
  SP_CHECK(store_.Remove(id).ok());
  NotifyRemoved(snippet);
  ++stats_.snippets_removed;
  if (story_id != kInvalidStoryId &&
      partition->FindStory(story_id) != nullptr) {
    StoryId cursor = next_story_id_.load(std::memory_order_relaxed);
    refiner_.SplitIfDisconnected(partition, story_id, store_, &cursor);
    next_story_id_.store(cursor, std::memory_order_relaxed);
  }
  DropCounterpartGraph();
  MarkStale();
}

Status StoryPivotEngine::RemoveDocument(const std::string& url) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  std::vector<SnippetId> ids = store_.FindByDocument(url);
  if (ids.empty()) return Status::NotFound("document " + url);
  for (SnippetId id : ids) {
    const Snippet* snippet = store_.Find(id);
    SP_CHECK(snippet != nullptr);
    Snippet copy = *snippet;  // RemoveSnippetInternal invalidates the ptr.
    RemoveSnippetInternal(copy);
  }
  return Status::OK();
}

Status StoryPivotEngine::RemoveSnippet(SnippetId id) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  const Snippet* snippet = store_.Find(id);
  if (snippet == nullptr) {
    return Status::NotFound(
        StrFormat("snippet %llu", static_cast<unsigned long long>(id)));
  }
  Snippet copy = *snippet;
  RemoveSnippetInternal(copy);
  return Status::OK();
}

const AlignmentResult& StoryPivotEngine::Align() { return AlignWith({}); }

const AlignmentResult& StoryPivotEngine::AlignWith(AlignmentResult previous) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  WallTimer timer;
  owed_alignment_.reset();  // Replaced: this alignment draws fresh ids.
  DropCounterpartGraph();  // At most one graph alive while building.
  StoryId cursor = next_story_id_.load(std::memory_order_relaxed);
  alignment_ = aligner_.Align(partitions(), store_, &cursor, pool_.get(),
                              std::move(previous));
  next_story_id_.store(cursor, std::memory_order_relaxed);
  stats_.align_time_ms += timer.ElapsedMillis();
  ++stats_.alignments_run;
  stale_ = false;
  return *alignment_;
}

const AlignmentResult& StoryPivotEngine::alignment() const {
  // Paying an owed alignment is a serial-section mutation.
  serial_.AssertInSection();
  if (owed_alignment_.has_value()) LogIfFailed(ComputeOwedAlignment());
  SP_CHECK(alignment_.has_value());
  return *alignment_;
}

Status StoryPivotEngine::OweAlignment(uint64_t stories) {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  const size_t total = TotalStories();
  if (stories > total) {
    return Status::Internal(StrFormat(
        "an alignment of %llu integrated stories over %zu stories",
        static_cast<unsigned long long>(stories), total));
  }
  alignment_.reset();  // Frees the previous alignment and its graph.
  const StoryId base = next_story_id_.load(std::memory_order_relaxed);
  next_story_id_.store(base + stories, std::memory_order_relaxed);
  owed_alignment_ = OwedAlignment{base, stories};
  stale_ = false;
  return Status::OK();
}

Status StoryPivotEngine::SettleOwedAlignment() {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  if (!owed_alignment_.has_value()) return Status::OK();
  return ComputeOwedAlignment();
}

Status StoryPivotEngine::ComputeOwedAlignment() const {
  const OwedAlignment owed = *owed_alignment_;
  owed_alignment_.reset();
  WallTimer timer;
  StoryId cursor = owed.base;
  alignment_ = aligner_.Align(partitions(), store_, &cursor, pool_.get());
  stats_.align_time_ms += timer.ElapsedMillis();
  ++stats_.alignments_run;
  if (alignment_->stories.size() == owed.stories) return Status::OK();
  // The log and the engine disagree. Ids past the owed range were never
  // drawn from the cursor; move it past them so none is handed out twice.
  if (cursor > next_story_id_.load(std::memory_order_relaxed)) {
    next_story_id_.store(cursor, std::memory_order_relaxed);
  }
  return Status::Internal(StrFormat(
      "owed alignment has %zu integrated stories, the logged Align() had "
      "%llu",
      alignment_->stories.size(),
      static_cast<unsigned long long>(owed.stories)));
}

RefinementStats StoryPivotEngine::Refine() {
  serial_.AssertInSection();  // Mutator: single-writer serial section.
  if (owed_alignment_.has_value()) {
    LogIfFailed(ComputeOwedAlignment());
  } else if (stale_ || !alignment_.has_value()) {
    Align();
  }
  std::vector<StorySet*> mutable_partitions;
  std::vector<SourceId> order;
  for (const SourceInfo& info : sources_) order.push_back(info.id);
  std::sort(order.begin(), order.end());
  for (SourceId source : order) {
    mutable_partitions.push_back(&partitions_.at(source));
  }
  // Every Align() leaves the counterpart graph the pass reads.
  SP_CHECK(alignment_->graph != nullptr);
  WallTimer timer;
  StoryId cursor = next_story_id_.load(std::memory_order_relaxed);
  RefinementStats stats = refiner_.Refine(mutable_partitions, *alignment_,
                                          store_, &cursor);
  next_story_id_.store(cursor, std::memory_order_relaxed);
  stats_.refine_time_ms += timer.ElapsedMillis();
  ++stats_.refinements_run;
  MarkStale();
  // Refinement moved snippets between stories but changed neither the
  // snippet set nor DF, so the alignment's graph still holds, and so does
  // its work on every story the pass left unchanged.
  AlignWith(std::move(*alignment_));
  return stats;
}

const StorySet* StoryPivotEngine::partition(SourceId source) const {
  auto it = partitions_.find(source);
  return it == partitions_.end() ? nullptr : &it->second;
}

std::vector<const StorySet*> StoryPivotEngine::partitions() const {
  std::vector<SourceId> order;
  for (const SourceInfo& info : sources_) order.push_back(info.id);
  std::sort(order.begin(), order.end());
  std::vector<const StorySet*> out;
  out.reserve(order.size());
  for (SourceId source : order) out.push_back(&partitions_.at(source));
  return out;
}

size_t StoryPivotEngine::TotalStories() const {
  size_t total = 0;
  for (const auto& [source, partition] : partitions_) {
    total += partition.stories().size();
  }
  return total;
}

StorySet* StoryPivotEngine::MutablePartition(SourceId source) {
  auto it = partitions_.find(source);
  return it == partitions_.end() ? nullptr : &it->second;
}

}  // namespace storypivot
