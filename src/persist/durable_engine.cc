#include "persist/durable_engine.h"

#include <utility>

#include "persist/codec.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/strings.h"

namespace storypivot::persist {
namespace {

Status ReplayMismatch(const char* what, uint64_t lsn) {
  return Status::Internal(StrFormat(
      "WAL replay diverged at lsn %llu: %s — the log was not produced by "
      "an equivalent engine",
      static_cast<unsigned long long>(lsn), what));
}

/// Names the WAL record whose replayed engine call failed, keeping the
/// call's status code.
Status AtRecord(const Status& status, uint64_t lsn) {
  return Status(status.code(),
                StrFormat("WAL record at lsn %llu: %s",
                          static_cast<unsigned long long>(lsn),
                          status.message().c_str()));
}

void EncodeVocabulary(Encoder* enc, const text::Vocabulary& vocab) {
  enc->PutU32(static_cast<uint32_t>(vocab.size()));
  for (text::TermId id = 0; id < vocab.size(); ++id) {
    enc->PutString(vocab.TermOf(id));
  }
}

}  // namespace

DurableEngine::DurableEngine(std::string dir, DurabilityOptions options)
    : dir_(std::move(dir)),
      options_(options),
      checkpointer_(dir_, options.keep_checkpoints) {}

DurableEngine::~DurableEngine() {
  if (wal_ != nullptr) IgnoreError(wal_->Close());
}

Result<std::unique_ptr<DurableEngine>> DurableEngine::Open(
    const std::string& dir, DurabilityOptions options,
    EngineConfig engine_config) {
  std::unique_ptr<DurableEngine> durable(
      new DurableEngine(dir, options));
  durable->engine_config_ = engine_config;
  // The factory IS the serial section: no other thread can hold a
  // reference to `durable` before Open returns it.
  durable->writer_.AssertInSection();
  RETURN_IF_ERROR(durable->Recover());
  return durable;
}

Status DurableEngine::Recover() {
  RETURN_IF_ERROR(CreateDirectories(dir_));

  // 1. Newest valid checkpoint (if any) seeds the engine state. All
  // recovered state is built into LOCALS and committed to members only
  // at the end, so a failed recovery (Reopen on a bad disk) leaves the
  // previous in-memory state readable.
  ASSIGN_OR_RETURN(Checkpointer::Loaded loaded,
                   checkpointer_.LoadNewest(engine_config_));
  std::unique_ptr<StoryPivotEngine> engine =
      loaded.engine != nullptr
          ? std::move(loaded.engine)
          : std::make_unique<StoryPivotEngine>(engine_config_);
  const uint64_t covered = loaded.covered_lsn;

  // 2. Replay the WAL tail: every record with lsn >= covered, in order.
  ASSIGN_OR_RETURN(std::vector<uint64_t> segments,
                   WriteAheadLog::ListSegments(dir_));
  uint64_t expected_next = covered;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool last = i + 1 == segments.size();
    // Fully checkpoint-covered segments (every record below `covered`)
    // are skipped: they may linger when a past DropSegmentsBelow was
    // interrupted, and their contents no longer matter.
    if (!last && segments[i + 1] <= covered) continue;
    if (segments[i] > expected_next) {
      return Status::IoError(StrFormat(
          "WAL gap: segment %s starts past expected lsn %llu",
          WriteAheadLog::SegmentName(segments[i]).c_str(),
          static_cast<unsigned long long>(expected_next)));
    }
    ASSIGN_OR_RETURN(SegmentScan scan,
                     WriteAheadLog::ScanSegmentFile(dir_, segments[i]));
    if (scan.torn_tail && !last) {
      return Status::IoError(
          "WAL corruption: torn record in a non-final segment " +
          WriteAheadLog::SegmentName(segments[i]));
    }
    for (const WalRecord& record : scan.records) {
      if (record.lsn < expected_next) continue;  // Below the checkpoint.
      RETURN_IF_ERROR(ReplayOp(record, engine.get()));
      ++expected_next;
    }
    const uint64_t segment_end = segments[i] + scan.records.size();
    if (!last && segments[i + 1] != segment_end) {
      return Status::IoError(StrFormat(
          "WAL gap: segment after %s starts at lsn %llu, expected %llu",
          WriteAheadLog::SegmentName(segments[i]).c_str(),
          static_cast<unsigned long long>(segments[i + 1]),
          static_cast<unsigned long long>(segment_end)));
    }
    // 3. Repair a torn tail (crash mid-append) so the segment is ready
    // for appending again. The lost suffix was never acknowledged as
    // durable — dropping it is exactly the prefix-consistency contract.
    if (scan.torn_tail) {
      const std::string path =
          dir_ + "/" + WriteAheadLog::SegmentName(segments[i]);
      ASSIGN_OR_RETURN(uint64_t actual_size, FileSize(path));
      SP_LOG(kWarning) << "WAL " << path << ": dropping torn tail ("
                       << actual_size - scan.valid_bytes << " bytes)";
      RETURN_IF_ERROR(TruncateFile(path, scan.valid_bytes));
    }
  }

  // 4. Open the log for appending where replay ended. The replayed tail
  // counts towards the auto-checkpoint policy: it is exactly the log a
  // subsequent checkpoint would compact away.
  ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                   WriteAheadLog::Open(dir_, options_.wal, expected_next));

  // Commit: recovery succeeded, adopt the rebuilt state. The previous
  // engine's IngestObserver must move with it — recovery replaces the
  // engine OBJECT, and an observer left behind on the dying engine
  // (e.g. search's index maintainer) would silently serve the
  // pre-recovery state forever after. Re-attach first, then fire
  // OnEngineReplaced so the observer reseats its pointers and rebuilds
  // derived state from the recovered store.
  IngestObserver* observer =
      engine_ != nullptr ? engine_->ingest_observer() : nullptr;
  engine_ = std::move(engine);
  wal_ = std::move(wal);
  ops_since_checkpoint_ = expected_next - covered;
  degraded_ = false;
  degraded_cause_ = Status::OK();
  if (observer != nullptr) {
    engine_->set_ingest_observer(observer);
    observer->OnEngineReplaced(engine_.get());
  }
  return Status::OK();
}

Status DurableEngine::Reopen() {
  writer_.AssertInSection();  // Single-writer serial section.
  if (wal_ != nullptr) {
    IgnoreError(wal_->Close());
    wal_.reset();
  }
  Status recovered = Recover();
  if (!recovered.ok()) {
    // Still broken: stay degraded on the old in-memory state so reads
    // keep working, and record why.
    degraded_ = true;
    degraded_cause_ = recovered;
  } else if (commit_hook_) {
    // Recovery rewound to the log-consistent prefix; readers must see
    // the rebuilt state, not the discarded pre-degradation one.
    commit_hook_(CommitEvent::kRecovery);
  }
  return recovered;
}

// --- Logged mutations ------------------------------------------------------

Status DurableEngine::CheckWritable() const {
  if (degraded_) {
    return Status::Degraded(
        "durable engine is in read-only degraded mode ("
        + degraded_cause_.ToString() + "); call Reopen() to recover");
  }
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durable engine is closed");
  }
  return Status::OK();
}

Status DurableEngine::LogOp(std::string payload) {
  RETURN_IF_ERROR(CheckWritable());
  Result<uint64_t> lsn = wal_->Append(payload);
  if (!lsn.ok()) {
    // The WAL already retried transients, so this failure is permanent.
    // The in-memory state now has a mutation the log does not:
    // acknowledging further mutations would desynchronise replay, so
    // drop to READ-ONLY degraded mode — queries stay served (from state
    // ahead of the log by exactly this op), mutations are rejected with
    // kDegraded, and Reopen() rebuilds from disk.
    degraded_ = true;
    degraded_cause_ = lsn.status();
    return Status::Degraded(
        "WAL append failed, durable engine now read-only: " +
        lsn.status().ToString());
  }
  ++ops_since_checkpoint_;
  if (options_.checkpoint_every_ops > 0 &&
      ops_since_checkpoint_ >= options_.checkpoint_every_ops) {
    Status checkpointed = Checkpoint();
    if (!checkpointed.ok()) {
      // Best-effort: the op itself is durably logged, a failed AUTO
      // checkpoint only delays compaction. ops_since_checkpoint_ keeps
      // growing, so the next op triggers another attempt. (A rotation
      // failure inside Checkpoint closes the WAL; the next mutation
      // then degrades the engine through the append path.)
      SP_LOG(kWarning) << "auto-checkpoint failed (will retry after next "
                       << "op): " << checkpointed.ToString();
    }
  }
  // The op is durable and applied: tell the serving tier (when one is
  // attached) to publish a fresh read snapshot. One hook firing per
  // logged op — a batch ingest is one op, so snapshots advance per
  // batch, not per snippet.
  if (commit_hook_) commit_hook_(CommitEvent::kMutation);
  return Status::OK();
}

Result<SourceId> DurableEngine::RegisterSource(const std::string& name) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  SourceId id = engine_->RegisterSource(name);
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kRegisterSource));
  enc.PutString(name);
  enc.PutU32(id);
  RETURN_IF_ERROR(LogOp(enc.Release()));
  return id;
}

Status DurableEngine::ImportVocabularies(const text::Vocabulary& entities,
                                         const text::Vocabulary& keywords) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(engine_->ImportVocabularies(entities, keywords));
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kImportVocabularies));
  EncodeVocabulary(&enc, entities);
  EncodeVocabulary(&enc, keywords);
  return LogOp(enc.Release());
}

Result<text::TermId> DurableEngine::AddGazetteerEntity(
    const std::string& canonical_name) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  text::TermId id = engine_->gazetteer()->AddEntity(canonical_name);
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kAddGazetteerEntity));
  enc.PutString(canonical_name);
  enc.PutU32(id);
  RETURN_IF_ERROR(LogOp(enc.Release()));
  return id;
}

Status DurableEngine::AddGazetteerAlias(text::TermId entity,
                                        const std::string& alias) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  engine_->gazetteer()->AddAlias(entity, alias);
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kAddGazetteerAlias));
  enc.PutU32(entity);
  enc.PutString(alias);
  return LogOp(enc.Release());
}

Result<SnippetId> DurableEngine::AddSnippet(Snippet snippet) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kAddSnippet));
  enc.PutSnippet(snippet);  // As passed: replay re-runs identification.
  ASSIGN_OR_RETURN(SnippetId id, engine_->AddSnippet(std::move(snippet)));
  enc.PutU64(id);
  RETURN_IF_ERROR(LogOp(enc.Release()));
  return id;
}

Result<std::vector<SnippetId>> DurableEngine::AddSnippets(
    std::vector<Snippet> snippets) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kAddSnippets));
  enc.PutU32(static_cast<uint32_t>(snippets.size()));
  for (const Snippet& snippet : snippets) enc.PutSnippet(snippet);
  ASSIGN_OR_RETURN(std::vector<SnippetId> ids,
                   engine_->AddSnippets(std::move(snippets)));
  enc.PutU32(static_cast<uint32_t>(ids.size()));
  for (SnippetId id : ids) enc.PutU64(id);
  RETURN_IF_ERROR(LogOp(enc.Release()));
  return ids;
}

Result<std::vector<SnippetId>> DurableEngine::AddDocument(
    const Document& document) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  ASSIGN_OR_RETURN(std::vector<SnippetId> ids,
                   engine_->AddDocument(document));
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kAddDocument));
  enc.PutDocument(document);
  enc.PutU32(static_cast<uint32_t>(ids.size()));
  for (SnippetId id : ids) enc.PutU64(id);
  RETURN_IF_ERROR(LogOp(enc.Release()));
  return ids;
}

Status DurableEngine::RemoveSource(SourceId source) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(engine_->RemoveSource(source));
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kRemoveSource));
  enc.PutU32(source);
  return LogOp(enc.Release());
}

Status DurableEngine::RemoveDocument(const std::string& url) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(engine_->RemoveDocument(url));
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kRemoveDocument));
  enc.PutString(url);
  return LogOp(enc.Release());
}

Status DurableEngine::RemoveSnippet(SnippetId id) {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  RETURN_IF_ERROR(engine_->RemoveSnippet(id));
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kRemoveSnippet));
  enc.PutU64(id);
  return LogOp(enc.Release());
}

Result<RefinementStats> DurableEngine::Refine() {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  RefinementStats stats = engine_->Refine();
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kRefine));
  enc.PutI64(stats.snippets_moved);
  enc.PutI64(stats.stories_split);
  RETURN_IF_ERROR(LogOp(enc.Release()));
  return stats;
}

Status DurableEngine::Align() {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  const AlignmentResult& aligned = engine_->Align();
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(WalOp::kAlign));
  enc.PutU64(aligned.stories.size());
  return LogOp(enc.Release());
}

// --- Replay ----------------------------------------------------------------

Status DurableEngine::ReplayOp(const WalRecord& record,
                               StoryPivotEngine* engine) {
  Decoder dec(record.payload);
  const WalOp op = static_cast<WalOp>(dec.GetU8());
  switch (op) {
    case WalOp::kRegisterSource: {
      std::string name = dec.GetString();
      SourceId expected = dec.GetU32();
      RETURN_IF_ERROR(dec.Finish());
      if (engine->RegisterSource(name) != expected) {
        return ReplayMismatch("RegisterSource id", record.lsn);
      }
      return Status::OK();
    }
    case WalOp::kImportVocabularies: {
      text::Vocabulary entities, keywords;
      uint32_t n = dec.GetU32();
      for (uint32_t i = 0; i < n && dec.ok(); ++i) {
        entities.Intern(dec.GetString());
      }
      n = dec.GetU32();
      for (uint32_t i = 0; i < n && dec.ok(); ++i) {
        keywords.Intern(dec.GetString());
      }
      RETURN_IF_ERROR(dec.Finish());
      return engine->ImportVocabularies(entities, keywords);
    }
    case WalOp::kAddGazetteerEntity: {
      std::string name = dec.GetString();
      text::TermId expected = dec.GetU32();
      RETURN_IF_ERROR(dec.Finish());
      if (engine->gazetteer()->AddEntity(name) != expected) {
        return ReplayMismatch("gazetteer entity id", record.lsn);
      }
      return Status::OK();
    }
    case WalOp::kAddGazetteerAlias: {
      text::TermId entity = dec.GetU32();
      std::string alias = dec.GetString();
      RETURN_IF_ERROR(dec.Finish());
      engine->gazetteer()->AddAlias(entity, alias);
      return Status::OK();
    }
    case WalOp::kAddSnippet: {
      Snippet snippet = dec.GetSnippet();
      SnippetId expected = dec.GetU64();
      RETURN_IF_ERROR(dec.Finish());
      Result<SnippetId> added = engine->AddSnippet(std::move(snippet));
      if (!added.ok()) return AtRecord(added.status(), record.lsn);
      const SnippetId id = added.value();
      if (id != expected) {
        return ReplayMismatch("AddSnippet id", record.lsn);
      }
      return Status::OK();
    }
    case WalOp::kAddSnippets: {
      uint32_t n = dec.GetU32();
      std::vector<Snippet> snippets;
      snippets.reserve(dec.ok() ? n : 0);
      for (uint32_t i = 0; i < n && dec.ok(); ++i) {
        snippets.push_back(dec.GetSnippet());
      }
      uint32_t n_ids = dec.GetU32();
      std::vector<SnippetId> expected;
      expected.reserve(dec.ok() ? n_ids : 0);
      for (uint32_t i = 0; i < n_ids && dec.ok(); ++i) {
        expected.push_back(dec.GetU64());
      }
      RETURN_IF_ERROR(dec.Finish());
      Result<std::vector<SnippetId>> added =
          engine->AddSnippets(std::move(snippets));
      if (!added.ok()) return AtRecord(added.status(), record.lsn);
      const std::vector<SnippetId>& ids = added.value();
      if (ids != expected) {
        return ReplayMismatch("AddSnippets ids", record.lsn);
      }
      return Status::OK();
    }
    case WalOp::kAddDocument: {
      Document document = dec.GetDocument();
      uint32_t n_ids = dec.GetU32();
      std::vector<SnippetId> expected;
      expected.reserve(dec.ok() ? n_ids : 0);
      for (uint32_t i = 0; i < n_ids && dec.ok(); ++i) {
        expected.push_back(dec.GetU64());
      }
      RETURN_IF_ERROR(dec.Finish());
      ASSIGN_OR_RETURN(std::vector<SnippetId> ids,
                       engine->AddDocument(document));
      if (ids != expected) {
        return ReplayMismatch("AddDocument ids", record.lsn);
      }
      return Status::OK();
    }
    case WalOp::kRemoveSource: {
      SourceId source = dec.GetU32();
      RETURN_IF_ERROR(dec.Finish());
      return engine->RemoveSource(source);
    }
    case WalOp::kRemoveDocument: {
      std::string url = dec.GetString();
      RETURN_IF_ERROR(dec.Finish());
      return engine->RemoveDocument(url);
    }
    case WalOp::kRemoveSnippet: {
      SnippetId id = dec.GetU64();
      RETURN_IF_ERROR(dec.Finish());
      return engine->RemoveSnippet(id);
    }
    case WalOp::kRefine: {
      int64_t moved = dec.GetI64();
      int64_t split = dec.GetI64();
      RETURN_IF_ERROR(dec.Finish());
      // Refine from the owed alignment's logged ids, checked against the
      // logged count; a fresh Align() would draw new ids.
      if (!engine->SettleOwedAlignment().ok()) {
        return ReplayMismatch("Align story count", record.lsn);
      }
      RefinementStats stats = engine->Refine();
      if (stats.snippets_moved != moved || stats.stories_split != split) {
        return ReplayMismatch("Refine outcome", record.lsn);
      }
      return Status::OK();
    }
    case WalOp::kAlign: {
      uint64_t expected = dec.GetU64();
      RETURN_IF_ERROR(dec.Finish());
      // Owed, not computed: the record's count is the ids Align() drew,
      // and a serving engine's first write would make the alignment stale
      // unread. Its first reader computes it (DESIGN.md §10).
      if (!engine->OweAlignment(expected).ok()) {
        return ReplayMismatch("Align story count", record.lsn);
      }
      return Status::OK();
    }
  }
  return Status::IoError(StrFormat(
      "WAL record %llu has unknown opcode %u",
      static_cast<unsigned long long>(record.lsn),
      static_cast<unsigned>(op)));
}

// --- Durability control ----------------------------------------------------

Status DurableEngine::Checkpoint() {
  writer_.AssertInSection();  // Single-writer serial section.
  RETURN_IF_ERROR(CheckWritable());
  // Rotate first so every previous segment becomes droppable the moment
  // the checkpoint lands.
  RETURN_IF_ERROR(wal_->Rotate());
  const uint64_t covered = wal_->next_lsn();
  RETURN_IF_ERROR(checkpointer_.Write(*engine_, covered));
  // Keep WAL segments back to the OLDEST retained checkpoint, not just
  // the newest: should the newest checkpoint turn out corrupt, recovery
  // falls back to an older one and needs the log from there on.
  ASSIGN_OR_RETURN(std::vector<uint64_t> kept, checkpointer_.List());
  RETURN_IF_ERROR(
      wal_->DropSegmentsBelow(kept.empty() ? covered : kept.front()));
  ops_since_checkpoint_ = 0;
  return Status::OK();
}

Status DurableEngine::Sync() {
  writer_.AssertInSection();  // Single-writer serial section.
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durable engine is closed");
  }
  return wal_->Sync();
}

Status DurableEngine::Close() {
  writer_.AssertInSection();  // Single-writer serial section.
  if (wal_ == nullptr) return Status::OK();
  Status status = wal_->Close();
  wal_.reset();
  return status;
}

uint64_t DurableEngine::next_lsn() const {
  writer_.AssertInSection();  // Single-writer read (DESIGN.md §13).
  return wal_ == nullptr ? 0 : wal_->next_lsn();
}

}  // namespace storypivot::persist
