#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "datagen/corpus.h"
#include "persist/checkpoint.h"
#include "persist/codec.h"
#include "persist/durable_engine.h"
#include "persist/wal.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/rng.h"

namespace storypivot {
namespace {

using persist::Checkpointer;
using persist::DurabilityOptions;
using persist::DurableEngine;
using persist::FsyncPolicy;
using persist::SegmentScan;
using persist::WriteAheadLog;

::testing::AssertionResult IsOk(const Status& status) {
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << status.ToString();
}
template <typename T>
::testing::AssertionResult IsOk(const Result<T>& result) {
  return IsOk(result.status());
}

#define ASSERT_OK(expr) ASSERT_TRUE(IsOk((expr)))

/// Returns an empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sp_persist_" + name;
  if (FileExists(dir)) {
    Result<std::vector<std::string>> names = ListDirectory(dir);
    SP_CHECK_OK(names.status());
    for (const std::string& entry : names.value()) {
      SP_CHECK_OK(RemoveFile(dir + "/" + entry));
    }
  }
  SP_CHECK_OK(CreateDirectories(dir));
  return dir;
}

// --- Recorded operation streams --------------------------------------------
//
// A TestOp is one engine mutation in data form, so the same stream can be
// applied both to a DurableEngine (producing a WAL) and to a plain
// StoryPivotEngine (producing the reference state a recovery must match).

enum class TestOpKind {
  kImport,
  kRegisterSource,
  kAddEntity,
  kAddAlias,
  kAddSnippet,
  kAddSnippets,
  kAddDocument,
  kRemoveSnippet,
  kRemoveDocument,
  kRemoveSource,
  kRefine,
  kAlign,
};

struct TestOp {
  TestOpKind kind;
  std::string text;  // Source name, entity name, alias, or document url.
  uint32_t id32 = 0;
  uint64_t id64 = 0;
  Snippet snippet;
  std::vector<Snippet> batch;
  Document document;
  const text::Vocabulary* entities = nullptr;
  const text::Vocabulary* keywords = nullptr;
};

Status Apply(const TestOp& op, DurableEngine* engine) {
  switch (op.kind) {
    case TestOpKind::kImport:
      return engine->ImportVocabularies(*op.entities, *op.keywords);
    case TestOpKind::kRegisterSource:
      return engine->RegisterSource(op.text).status();
    case TestOpKind::kAddEntity:
      return engine->AddGazetteerEntity(op.text).status();
    case TestOpKind::kAddAlias:
      return engine->AddGazetteerAlias(op.id32, op.text);
    case TestOpKind::kAddSnippet:
      return engine->AddSnippet(op.snippet).status();
    case TestOpKind::kAddSnippets:
      return engine->AddSnippets(op.batch).status();
    case TestOpKind::kAddDocument:
      return engine->AddDocument(op.document).status();
    case TestOpKind::kRemoveSnippet:
      return engine->RemoveSnippet(op.id64);
    case TestOpKind::kRemoveDocument:
      return engine->RemoveDocument(op.text);
    case TestOpKind::kRemoveSource:
      return engine->RemoveSource(op.id32);
    case TestOpKind::kRefine:
      return engine->Refine().status();
    case TestOpKind::kAlign:
      return engine->Align();
  }
  return Status::Internal("unhandled op");
}

Status Apply(const TestOp& op, StoryPivotEngine* engine) {
  switch (op.kind) {
    case TestOpKind::kImport:
      return engine->ImportVocabularies(*op.entities, *op.keywords);
    case TestOpKind::kRegisterSource:
      engine->RegisterSource(op.text);
      return Status::OK();
    case TestOpKind::kAddEntity:
      engine->gazetteer()->AddEntity(op.text);
      return Status::OK();
    case TestOpKind::kAddAlias:
      engine->gazetteer()->AddAlias(op.id32, op.text);
      return Status::OK();
    case TestOpKind::kAddSnippet:
      return engine->AddSnippet(op.snippet).status();
    case TestOpKind::kAddSnippets:
      return engine->AddSnippets(op.batch).status();
    case TestOpKind::kAddDocument:
      return engine->AddDocument(op.document).status();
    case TestOpKind::kRemoveSnippet:
      return engine->RemoveSnippet(op.id64);
    case TestOpKind::kRemoveDocument:
      return engine->RemoveDocument(op.text);
    case TestOpKind::kRemoveSource:
      return engine->RemoveSource(op.id32);
    case TestOpKind::kRefine:
      engine->Refine();
      return Status::OK();
    case TestOpKind::kAlign:
      engine->Align();
      return Status::OK();
  }
  return Status::Internal("unhandled op");
}

struct RecordedRun {
  datagen::Corpus corpus;
  std::vector<TestOp> ops;
};

/// Builds a deterministic stream of exactly `total_ops` mutations that
/// exercises every WalOp: vocabulary import, source registration,
/// gazetteer seeding, single and batched snippet adds, document ingestion
/// with text extraction, snippet/document/source removal, refinement, and
/// alignment.
RecordedRun MakeRun(size_t total_ops, uint64_t corpus_seed = 91) {
  SP_CHECK(total_ops >= 20);
  RecordedRun run;
  datagen::CorpusConfig config;
  config.seed = corpus_seed;
  config.num_sources = 3;
  config.num_stories = 8;
  config.target_num_snippets = static_cast<int>(total_ops + 150);
  run.corpus = datagen::CorpusGenerator(config).Generate();
  std::vector<TestOp>& ops = run.ops;

  {
    TestOp op;
    op.kind = TestOpKind::kImport;
    op.entities = run.corpus.entity_vocabulary.get();
    op.keywords = run.corpus.keyword_vocabulary.get();
    ops.push_back(std::move(op));
  }
  for (const SourceInfo& source : run.corpus.sources) {
    TestOp op;
    op.kind = TestOpKind::kRegisterSource;
    op.text = source.name;
    ops.push_back(std::move(op));
  }
  for (const char* name : {"acme corp", "globex fund"}) {
    TestOp op;
    op.kind = TestOpKind::kAddEntity;
    op.text = name;
    ops.push_back(std::move(op));
  }
  {
    TestOp op;
    op.kind = TestOpKind::kAddAlias;
    op.id32 = 0;  // First imported entity term.
    op.text = "primordial entity";
    ops.push_back(std::move(op));
  }

  size_t next_snippet = 0;        // Cursor into corpus.snippets.
  uint64_t snippets_added = 0;    // Engine snippet ids are sequential.
  std::vector<uint64_t> removable;
  int docs_added = 0;
  int docs_removed = 0;
  auto take_snippet = [&](bool exclude_source_2) -> Snippet {
    while (exclude_source_2 &&
           next_snippet < run.corpus.snippets.size() &&
           run.corpus.snippets[next_snippet].source == 2) {
      ++next_snippet;
    }
    SP_CHECK(next_snippet < run.corpus.snippets.size());
    Snippet snippet = run.corpus.snippets[next_snippet++];
    snippet.id = kInvalidSnippetId;
    return snippet;
  };

  while (ops.size() < total_ops - 3) {
    const size_t i = ops.size();
    TestOp op;
    if (i % 67 == 0) {
      // Alignment advances the integrated-story-id cursor, so replay
      // must reproduce it mid-stream, not only at the end.
      op.kind = TestOpKind::kAlign;
    } else if (i % 53 == 0) {
      op.kind = TestOpKind::kRefine;
    } else if (i % 31 == 0 && snippets_added >= 40) {
      op.kind = TestOpKind::kAddDocument;
      op.document.source = static_cast<SourceId>(docs_added % 2);
      op.document.timestamp = MakeTimestamp(2014, 6, 1) + docs_added * 3600;
      op.document.url = "doc-" + std::to_string(docs_added);
      op.document.title = "acme corp quarterly report " +
                          std::to_string(docs_added);
      op.document.paragraphs = {
          "acme corp announced a merger with globex fund today",
          "analysts from globex fund expect the primordial entity to "
          "rally in quarter " + std::to_string(docs_added)};
      ++docs_added;
    } else if (i % 101 == 0 && docs_removed + 2 < docs_added) {
      op.kind = TestOpKind::kRemoveDocument;
      op.text = "doc-" + std::to_string(docs_removed);
      ++docs_removed;
    } else if (i % 23 == 0 && !removable.empty()) {
      op.kind = TestOpKind::kRemoveSnippet;
      op.id64 = removable.back();
      removable.pop_back();
    } else if (i % 13 == 0) {
      op.kind = TestOpKind::kAddSnippets;
      for (int j = 0; j < 4; ++j) {
        op.batch.push_back(take_snippet(/*exclude_source_2=*/false));
      }
      snippets_added += 4;
    } else {
      op.kind = TestOpKind::kAddSnippet;
      op.snippet = take_snippet(/*exclude_source_2=*/false);
      if (snippets_added < 30) removable.push_back(snippets_added);
      ++snippets_added;
    }
    ops.push_back(std::move(op));
  }
  {
    TestOp op;
    op.kind = TestOpKind::kRemoveSource;
    op.id32 = 2;
    ops.push_back(std::move(op));
  }
  {
    TestOp op;
    op.kind = TestOpKind::kRefine;
    ops.push_back(std::move(op));
  }
  {
    TestOp op;
    op.kind = TestOpKind::kAddSnippet;
    op.snippet = take_snippet(/*exclude_source_2=*/true);
    ops.push_back(std::move(op));
  }
  SP_CHECK(ops.size() == total_ops);
  return run;
}

DurabilityOptions FastOptions() {
  DurabilityOptions options;
  // No crash is simulated at the fsync level here (truncation plays the
  // role of lost writes), so skip per-record fsyncs for speed.
  options.wal.fsync = FsyncPolicy::kOnRotate;
  return options;
}

/// Runs `ops` through a DurableEngine in `dir` and returns the engine's
/// state fingerprint at close time.
uint64_t RecordRun(const std::string& dir, const RecordedRun& run,
                   DurabilityOptions options,
                   EngineConfig engine_config = {}) {
  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, options, engine_config);
  SP_CHECK_OK(opened.status());
  DurableEngine& engine = *opened.value();
  for (const TestOp& op : run.ops) SP_CHECK_OK(Apply(op, &engine));
  uint64_t fingerprint = EngineStateFingerprint(engine.engine());
  SP_CHECK_OK(engine.Close());
  return fingerprint;
}

/// Equal alignments: the same integrated stories (ids, members, merged
/// snippets) in the same order, and the same roles and counterparts.
::testing::AssertionResult SameAlignment(const AlignmentResult& got,
                                         const AlignmentResult& want) {
  if (got.stories.size() != want.stories.size()) {
    return ::testing::AssertionFailure()
           << got.stories.size() << " integrated stories, want "
           << want.stories.size();
  }
  for (size_t i = 0; i < got.stories.size(); ++i) {
    const IntegratedStory& a = got.stories[i];
    const IntegratedStory& b = want.stories[i];
    if (a.id != b.id || a.members != b.members ||
        a.merged.snippets() != b.merged.snippets()) {
      return ::testing::AssertionFailure()
             << "integrated story " << i << " has id " << a.id << ", want "
             << b.id << " (or different members or snippets)";
    }
  }
  if (got.integrated_of != want.integrated_of) {
    return ::testing::AssertionFailure() << "different story membership";
  }
  if (got.roles != want.roles) {
    return ::testing::AssertionFailure() << "different snippet roles";
  }
  if (got.counterpart != want.counterpart) {
    return ::testing::AssertionFailure() << "different counterparts";
  }
  return ::testing::AssertionSuccess();
}

// --- WAL framing -----------------------------------------------------------

TEST(WalTest, AppendReadBack) {
  const std::string dir = FreshDir("wal_roundtrip");
  persist::WalOptions options;
  options.fsync = FsyncPolicy::kEveryRecord;
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(dir, options, 0);
    ASSERT_OK(wal.status());
    for (int i = 0; i < 5; ++i) {
      Result<uint64_t> lsn =
          wal.value()->Append("payload-" + std::to_string(i));
      ASSERT_OK(lsn.status());
      EXPECT_EQ(lsn.value(), static_cast<uint64_t>(i));
    }
    ASSERT_OK(wal.value()->Close());
  }
  Result<SegmentScan> scan = WriteAheadLog::ScanSegmentFile(dir, 0);
  ASSERT_OK(scan.status());
  EXPECT_FALSE(scan.value().torn_tail);
  ASSERT_EQ(scan.value().records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scan.value().records[i].lsn, static_cast<uint64_t>(i));
    EXPECT_EQ(scan.value().records[i].payload,
              "payload-" + std::to_string(i));
  }
}

TEST(WalTest, EmptySegmentScansClean) {
  Result<SegmentScan> scan = WriteAheadLog::ScanSegment("", 7);
  ASSERT_OK(scan.status());
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_FALSE(scan.value().torn_tail);
  EXPECT_EQ(scan.value().valid_bytes, 0u);
}

TEST(WalTest, TornTailStopsScanWithoutError) {
  const std::string dir = FreshDir("wal_torn");
  persist::WalOptions options;
  {
    auto wal = WriteAheadLog::Open(dir, options, 0);
    ASSERT_OK(wal.status());
    ASSERT_OK(wal.value()->Append("first record").status());
    ASSERT_OK(wal.value()->Append("second record").status());
    ASSERT_OK(wal.value()->Close());
  }
  Result<std::string> bytes =
      ReadFileToString(dir + "/" + WriteAheadLog::SegmentName(0));
  ASSERT_OK(bytes.status());
  // Every strict prefix is a torn tail or a clean boundary — never an
  // error, because truncation cannot fabricate a complete frame.
  for (size_t len = 0; len < bytes.value().size(); ++len) {
    Result<SegmentScan> scan = WriteAheadLog::ScanSegment(
        std::string_view(bytes.value()).substr(0, len), 0);
    ASSERT_OK(scan.status()) << "at length " << len;
    EXPECT_LE(scan.value().records.size(), 2u);
    EXPECT_EQ(scan.value().torn_tail, len != scan.value().valid_bytes);
  }
}

TEST(WalTest, CorruptCompleteFrameIsHardError) {
  const std::string dir = FreshDir("wal_corrupt");
  persist::WalOptions options;
  {
    auto wal = WriteAheadLog::Open(dir, options, 0);
    ASSERT_OK(wal.status());
    ASSERT_OK(wal.value()->Append("first record").status());
    ASSERT_OK(wal.value()->Append("second record").status());
    ASSERT_OK(wal.value()->Close());
  }
  const std::string path = dir + "/" + WriteAheadLog::SegmentName(0);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_OK(bytes.status());
  // Flip one payload byte of the FIRST record: a complete frame with a
  // bad CRC, i.e. corruption — a hard error, not a silent truncation.
  std::string corrupt = bytes.value();
  corrupt[20] = static_cast<char>(corrupt[20] ^ 0x5A);
  Result<SegmentScan> scan = WriteAheadLog::ScanSegment(corrupt, 0);
  EXPECT_FALSE(scan.ok());
  // The same applies to the final record when its frame is complete.
  corrupt = bytes.value();
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x5A);
  scan = WriteAheadLog::ScanSegment(corrupt, 0);
  EXPECT_FALSE(scan.ok());
}

TEST(WalTest, RotationProducesGaplessSegments) {
  const std::string dir = FreshDir("wal_rotate");
  persist::WalOptions options;
  options.segment_bytes = 64;  // Rotate roughly every record.
  {
    auto wal = WriteAheadLog::Open(dir, options, 0);
    ASSERT_OK(wal.status());
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(
          wal.value()->Append("record number " + std::to_string(i)).status());
    }
    ASSERT_OK(wal.value()->Close());
  }
  Result<std::vector<uint64_t>> segments = WriteAheadLog::ListSegments(dir);
  ASSERT_OK(segments.status());
  ASSERT_GT(segments.value().size(), 2u);
  uint64_t expected = 0;
  for (uint64_t start : segments.value()) {
    EXPECT_EQ(start, expected);
    Result<SegmentScan> scan = WriteAheadLog::ScanSegmentFile(dir, start);
    ASSERT_OK(scan.status());
    EXPECT_FALSE(scan.value().torn_tail);
    expected += scan.value().records.size();
  }
  EXPECT_EQ(expected, 10u);
}

// --- Checkpointer ----------------------------------------------------------

TEST(CheckpointTest, NamesRoundTrip) {
  EXPECT_EQ(Checkpointer::CheckpointName(42),
            "checkpoint-00000000000000000042.sp");
  Result<uint64_t> lsn =
      Checkpointer::ParseCheckpointName("checkpoint-00000000000000000042.sp");
  ASSERT_OK(lsn.status());
  EXPECT_EQ(lsn.value(), 42u);
  EXPECT_FALSE(Checkpointer::ParseCheckpointName("wal-0.log").ok());
  EXPECT_FALSE(Checkpointer::ParseCheckpointName("checkpoint-.sp").ok());
}

TEST(CheckpointTest, PrunesToKeepCount) {
  const std::string dir = FreshDir("ckpt_prune");
  Checkpointer checkpointer(dir);
  StoryPivotEngine engine;
  ASSERT_OK(checkpointer.Write(engine, 10));
  ASSERT_OK(checkpointer.Write(engine, 20));
  ASSERT_OK(checkpointer.Write(engine, 30));
  Result<std::vector<uint64_t>> lsns = checkpointer.List();
  ASSERT_OK(lsns.status());
  EXPECT_EQ(lsns.value(), (std::vector<uint64_t>{20, 30}));
}

TEST(CheckpointTest, LoadNewestFallsBackPastCorruption) {
  const std::string dir = FreshDir("ckpt_fallback");
  Checkpointer checkpointer(dir);
  StoryPivotEngine engine;
  engine.RegisterSource("survivor");
  ASSERT_OK(checkpointer.Write(engine, 10));
  engine.RegisterSource("casualty");
  ASSERT_OK(checkpointer.Write(engine, 20));
  // Corrupt the newest checkpoint in place.
  const std::string newest = dir + "/" + Checkpointer::CheckpointName(20);
  ASSERT_OK(WriteStringToFile(newest, "#storypivot-snapshot\tv2\ngarbage"));
  Result<Checkpointer::Loaded> loaded = checkpointer.LoadNewest({});
  ASSERT_OK(loaded.status());
  EXPECT_EQ(loaded.value().covered_lsn, 10u);
  ASSERT_NE(loaded.value().engine, nullptr);
  EXPECT_EQ(loaded.value().engine->sources().size(), 1u);
}

// --- DurableEngine recovery ------------------------------------------------

TEST(DurableEngineTest, FreshDirectoryStartsEmpty) {
  const std::string dir = FreshDir("fresh");
  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(opened.status());
  EXPECT_EQ(opened.value()->next_lsn(), 0u);
  EXPECT_EQ(opened.value()->engine().store().size(), 0u);
  ASSERT_OK(opened.value()->Close());
}

TEST(DurableEngineTest, CleanShutdownRecoversBitIdentical) {
  RecordedRun run = MakeRun(120);
  const std::string dir = FreshDir("clean_shutdown");
  const uint64_t recorded = RecordRun(dir, run, FastOptions());

  Result<std::unique_ptr<DurableEngine>> reopened =
      DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->next_lsn(), run.ops.size());
  EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
  // Bit-identical, not just fingerprint-identical.
  StoryPivotEngine reference;
  for (const TestOp& op : run.ops) ASSERT_OK(Apply(op, &reference));
  EXPECT_EQ(SaveSnapshot(reopened.value()->engine()),
            SaveSnapshot(reference));
  ASSERT_OK(reopened.value()->Close());
}

TEST(DurableEngineTest, CheckpointOnlyRecovery) {
  RecordedRun run = MakeRun(60);
  const std::string dir = FreshDir("ckpt_only");
  uint64_t recorded = 0;
  {
    auto opened = DurableEngine::Open(dir, FastOptions());
    ASSERT_OK(opened.status());
    for (const TestOp& op : run.ops) ASSERT_OK(Apply(op, &*opened.value()));
    ASSERT_OK(opened.value()->Checkpoint());
    recorded = EngineStateFingerprint(opened.value()->engine());
    ASSERT_OK(opened.value()->Close());
  }
  // The checkpoint covers everything; pre-checkpoint segments are gone.
  Result<std::vector<uint64_t>> segments = WriteAheadLog::ListSegments(dir);
  ASSERT_OK(segments.status());
  ASSERT_EQ(segments.value().size(), 1u);
  EXPECT_EQ(segments.value()[0], run.ops.size());
  // Recovery from checkpoint + empty tail.
  {
    auto reopened = DurableEngine::Open(dir, FastOptions());
    ASSERT_OK(reopened.status());
    EXPECT_EQ(reopened.value()->next_lsn(), run.ops.size());
    EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
    ASSERT_OK(reopened.value()->Close());
  }
  // Even with the (empty) active segment gone, the checkpoint suffices.
  ASSERT_OK(RemoveFile(
      dir + "/" + WriteAheadLog::SegmentName(run.ops.size())));
  auto reopened = DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->next_lsn(), run.ops.size());
  EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
  ASSERT_OK(reopened.value()->Close());
}

TEST(DurableEngineTest, CheckpointPlusTailRecovery) {
  RecordedRun run = MakeRun(100);
  const std::string dir = FreshDir("ckpt_tail");
  uint64_t recorded = 0;
  {
    auto opened = DurableEngine::Open(dir, FastOptions());
    ASSERT_OK(opened.status());
    for (size_t i = 0; i < run.ops.size(); ++i) {
      ASSERT_OK(Apply(run.ops[i], &*opened.value()));
      if (i == 59) {
        ASSERT_OK(opened.value()->Checkpoint());
      }
    }
    recorded = EngineStateFingerprint(opened.value()->engine());
    ASSERT_OK(opened.value()->Close());
  }
  auto reopened = DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->next_lsn(), run.ops.size());
  EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
  ASSERT_OK(reopened.value()->Close());
}

TEST(DurableEngineTest, AutoCheckpointTriggersAndRecovers) {
  RecordedRun run = MakeRun(90);
  const std::string dir = FreshDir("auto_ckpt");
  DurabilityOptions options = FastOptions();
  options.checkpoint_every_ops = 25;
  const uint64_t recorded = RecordRun(dir, run, options);
  Checkpointer checkpointer(dir);
  Result<std::vector<uint64_t>> checkpoints = checkpointer.List();
  ASSERT_OK(checkpoints.status());
  EXPECT_FALSE(checkpoints.value().empty());
  auto reopened = DurableEngine::Open(dir, options);
  ASSERT_OK(reopened.status());
  EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
  ASSERT_OK(reopened.value()->Close());
}

TEST(DurableEngineTest, CorruptNewestCheckpointFallsBackToOlderPlusTail) {
  RecordedRun run = MakeRun(100);
  const std::string dir = FreshDir("ckpt_corrupt_fallback");
  uint64_t recorded = 0;
  uint64_t second_checkpoint_lsn = 0;
  {
    auto opened = DurableEngine::Open(dir, FastOptions());
    ASSERT_OK(opened.status());
    for (size_t i = 0; i < run.ops.size(); ++i) {
      ASSERT_OK(Apply(run.ops[i], &*opened.value()));
      if (i == 39 || i == 69) {
        ASSERT_OK(opened.value()->Checkpoint());
      }
      if (i == 69) second_checkpoint_lsn = opened.value()->next_lsn();
    }
    recorded = EngineStateFingerprint(opened.value()->engine());
    ASSERT_OK(opened.value()->Close());
  }
  // Break the newest checkpoint after the fact (bit rot). Recovery must
  // fall back to the older checkpoint and replay the longer WAL tail —
  // which still exists, because segments are pruned only up to the
  // OLDEST retained checkpoint.
  ASSERT_OK(WriteStringToFile(
      dir + "/" + Checkpointer::CheckpointName(second_checkpoint_lsn),
      "#storypivot-snapshot\tv2\ngarbage"));
  auto reopened = DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->next_lsn(), run.ops.size());
  EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
  ASSERT_OK(reopened.value()->Close());
}

TEST(DurableEngineTest, RecoveryAcrossRotationBoundaries) {
  RecordedRun run = MakeRun(80);
  const std::string dir = FreshDir("rotation");
  DurabilityOptions options = FastOptions();
  options.wal.segment_bytes = 2048;  // Many small segments.
  const uint64_t recorded = RecordRun(dir, run, options);
  Result<std::vector<uint64_t>> segments = WriteAheadLog::ListSegments(dir);
  ASSERT_OK(segments.status());
  ASSERT_GT(segments.value().size(), 3u);
  auto reopened = DurableEngine::Open(dir, options);
  ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->next_lsn(), run.ops.size());
  EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
  ASSERT_OK(reopened.value()->Close());
}

TEST(DurableEngineTest, MissingMiddleSegmentIsHardError) {
  RecordedRun run = MakeRun(80);
  const std::string dir = FreshDir("gap");
  DurabilityOptions options = FastOptions();
  options.wal.segment_bytes = 2048;
  (void)RecordRun(dir, run, options);
  Result<std::vector<uint64_t>> segments = WriteAheadLog::ListSegments(dir);
  ASSERT_OK(segments.status());
  ASSERT_GT(segments.value().size(), 3u);
  ASSERT_OK(RemoveFile(
      dir + "/" + WriteAheadLog::SegmentName(segments.value()[1])));
  EXPECT_FALSE(DurableEngine::Open(dir, options).ok());
}

TEST(DurableEngineTest, MidLogCorruptionFailsOpenLoudly) {
  RecordedRun run = MakeRun(40);
  const std::string dir = FreshDir("midlog_corrupt");
  (void)RecordRun(dir, run, FastOptions());
  const std::string path = dir + "/" + WriteAheadLog::SegmentName(0);
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_OK(bytes.status());
  // Flip a byte roughly in the middle of the log: it lands inside some
  // complete frame, which recovery must report — not truncate away.
  std::string corrupt = bytes.value();
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x5A);
  ASSERT_OK(WriteStringToFile(path, corrupt));
  Result<std::unique_ptr<DurableEngine>> reopened =
      DurableEngine::Open(dir, FastOptions());
  EXPECT_FALSE(reopened.ok());
}

TEST(DurableEngineTest, TornTailIsRepairedAndAppendable) {
  RecordedRun run = MakeRun(40);
  const std::string dir = FreshDir("torn_repair");
  (void)RecordRun(dir, run, FastOptions());
  const std::string path = dir + "/" + WriteAheadLog::SegmentName(0);
  Result<uint64_t> full_size = FileSize(path);
  ASSERT_OK(full_size.status());
  // Simulate a crash mid-append: half a frame head dangling at the end.
  {
    AppendFile file;
    ASSERT_OK(file.Open(path));
    ASSERT_OK(file.Append(std::string("\x40\x00\x00\x00\xde\xad", 6)));
    ASSERT_OK(file.Close());
  }
  auto reopened = DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->next_lsn(), run.ops.size());
  // The torn bytes were truncated away...
  Result<uint64_t> repaired_size = FileSize(path);
  ASSERT_OK(repaired_size.status());
  EXPECT_EQ(repaired_size.value(), full_size.value());
  // ...and the log accepts new appends that survive the next recovery.
  Result<SnippetId> added =
      reopened.value()->AddSnippet(run.ops.back().snippet);
  ASSERT_OK(added.status());
  const uint64_t fingerprint =
      EngineStateFingerprint(reopened.value()->engine());
  ASSERT_OK(reopened.value()->Close());
  auto again = DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(again.status());
  EXPECT_EQ(EngineStateFingerprint(again.value()->engine()), fingerprint);
  ASSERT_OK(again.value()->Close());
}

TEST(DurableEngineTest, ClosedEngineRejectsMutationsWithoutApplying) {
  const std::string dir = FreshDir("closed");
  auto opened = DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(opened.status());
  ASSERT_OK(opened.value()->RegisterSource("src").status());
  ASSERT_OK(opened.value()->Close());
  const size_t sources = opened.value()->engine().sources().size();
  EXPECT_FALSE(opened.value()->RegisterSource("late").ok());
  EXPECT_FALSE(opened.value()->RemoveSource(0).ok());
  EXPECT_FALSE(opened.value()->Checkpoint().ok());
  // The rejected mutation did NOT leak into the in-memory state.
  EXPECT_EQ(opened.value()->engine().sources().size(), sources);
}

TEST(DurableEngineTest, SecondOpenOfSameWalDirIsRejected) {
  const std::string dir = FreshDir("registry");
  Result<std::unique_ptr<DurableEngine>> first = DurableEngine::Open(dir);
  ASSERT_OK(first.status());
  // Same directory, same process, first engine still live: refused —
  // two appenders would interleave frames and corrupt the log.
  Result<std::unique_ptr<DurableEngine>> second = DurableEngine::Open(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Releasing the first engine releases the directory claim.
  first.value().reset();
  Result<std::unique_ptr<DurableEngine>> third = DurableEngine::Open(dir);
  ASSERT_OK(third.status());
}

TEST(DurableEngineTest, UnknownOpcodeFailsOpenWithTypedError) {
  // 13-15 are the opcodes of the retired sharded engine's replication
  // records; 200 was never assigned. None may reach a decoder.
  for (const unsigned opcode : {13u, 14u, 15u, 200u}) {
    SCOPED_TRACE(opcode);
    const std::string dir = FreshDir("unknown_opcode");
    {
      Result<std::unique_ptr<WriteAheadLog>> wal =
          WriteAheadLog::Open(dir, persist::WalOptions{}, 0);
      ASSERT_OK(wal.status());
      std::string payload(9, '\0');
      payload[0] = static_cast<char>(opcode);
      ASSERT_OK(wal.value()->Append(payload).status());
      ASSERT_OK(wal.value()->Close());
    }
    Result<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(dir, FastOptions());
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
    EXPECT_NE(std::string(opened.status().message())
                  .find("unknown opcode " + std::to_string(opcode)),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(DurableEngineTest, RecoveryRefusesALoggedNonFiniteWeight) {
  // The engine refuses such a snippet before it is logged, so only a
  // forged or damaged log can hold one; replay must refuse it with a
  // typed error instead of feeding NaN scores to identification.
  const std::string dir = FreshDir("nan_weight");
  {
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(dir, persist::WalOptions{}, 0);
    ASSERT_OK(wal.status());
    persist::Encoder source;
    source.PutU8(static_cast<uint8_t>(persist::WalOp::kRegisterSource));
    source.PutString("s");
    source.PutU32(0);
    ASSERT_OK(wal.value()->Append(source.Release()).status());
    Snippet snippet;
    snippet.source = 0;
    snippet.entities = text::TermVector::FromEntries({{0, 1.0}});
    snippet.keywords = text::TermVector::FromEntries(
        {{5, std::numeric_limits<double>::quiet_NaN()}});
    persist::Encoder add;
    add.PutU8(static_cast<uint8_t>(persist::WalOp::kAddSnippet));
    add.PutSnippet(snippet);
    add.PutU64(0);
    ASSERT_OK(wal.value()->Append(add.Release()).status());
    ASSERT_OK(wal.value()->Close());
  }
  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, FastOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  // The error names the record and the weight, so an operator can find
  // them.
  const std::string message = opened.status().message();
  EXPECT_NE(message.find("lsn 1"), std::string::npos) << message;
  EXPECT_NE(message.find("finite"), std::string::npos) << message;
}

TEST(DurableEngineTest, ReplayIsDeterministicAcrossThreadCounts) {
  RecordedRun run = MakeRun(120);
  const std::string dir = FreshDir("threads");
  EngineConfig single;
  single.num_threads = 1;
  const uint64_t recorded = RecordRun(dir, run, FastOptions(), single);
  EngineConfig parallel;
  parallel.num_threads = 4;
  auto reopened = DurableEngine::Open(dir, FastOptions(), parallel);
  ASSERT_OK(reopened.status());
  EXPECT_EQ(EngineStateFingerprint(reopened.value()->engine()), recorded);
  ASSERT_OK(reopened.value()->Close());
}

// --- The kill-point property -----------------------------------------------
//
// Record a 500-op run into a single WAL segment, then simulate a crash at
// EVERY byte offset of the log by truncating it there. At every offset the
// scan must yield a clean prefix (never a hard error), and recovering from
// each distinct prefix length must reproduce exactly the state of a fresh
// engine fed the same operation prefix.

TEST(DurableEngineTest, KillPointAtEveryByteOffset) {
  const size_t kOps = 500;
  RecordedRun run = MakeRun(kOps);
  const std::string dir = FreshDir("killpoint_record");
  DurabilityOptions options = FastOptions();
  options.wal.segment_bytes = 1ull << 30;  // Keep it to one segment.
  const uint64_t final_fingerprint = RecordRun(dir, run, options);

  Result<std::string> log =
      ReadFileToString(dir + "/" + WriteAheadLog::SegmentName(0));
  ASSERT_OK(log.status());
  const std::string& bytes = log.value();

  // Reference fingerprints: fp[k] = state after the first k operations,
  // and the eager alignment at every prefix that ends in an Align().
  std::vector<uint64_t> fp(kOps + 1);
  std::map<size_t, AlignmentResult> aligned;
  StoryPivotEngine reference;
  fp[0] = EngineStateFingerprint(reference);
  for (size_t k = 0; k < kOps; ++k) {
    ASSERT_OK(Apply(run.ops[k], &reference));
    fp[k + 1] = EngineStateFingerprint(reference);
    if (run.ops[k].kind == TestOpKind::kAlign) {
      aligned.emplace(k + 1, reference.alignment());
    }
  }
  ASSERT_EQ(fp[kOps], final_fingerprint);
  ASSERT_GE(aligned.size(), 5u);

  const std::string crash_dir = FreshDir("killpoint_crash");
  const std::string crash_log =
      crash_dir + "/" + WriteAheadLog::SegmentName(0);
  size_t recoveries = 0;
  size_t compared = 0;
  size_t last_prefix = static_cast<size_t>(-1);
  for (size_t len = 0; len <= bytes.size(); ++len) {
    Result<SegmentScan> scan =
        WriteAheadLog::ScanSegment(std::string_view(bytes).substr(0, len), 0);
    // Truncation can never look like corruption.
    ASSERT_OK(scan.status()) << "at offset " << len;
    const size_t prefix = scan.value().records.size();
    ASSERT_LE(prefix, kOps);
    ASSERT_EQ(scan.value().torn_tail, len != scan.value().valid_bytes);
    if (prefix == last_prefix) continue;
    ASSERT_EQ(prefix, last_prefix + 1) << "prefix skipped a record";
    last_prefix = prefix;
    // Full crash-recovery once per distinct surviving prefix: write the
    // truncated log into a fresh directory and recover from it.
    ASSERT_OK(WriteStringToFile(crash_log, bytes.substr(0, len)));
    Result<std::unique_ptr<DurableEngine>> recovered =
        DurableEngine::Open(crash_dir, options);
    ASSERT_OK(recovered.status()) << "at offset " << len;
    EXPECT_EQ(recovered.value()->next_lsn(), prefix);
    ASSERT_EQ(EngineStateFingerprint(recovered.value()->engine()), fp[prefix])
        << "recovered state diverges at prefix " << prefix;
    // Right after a logged Align() the recovered engine owes it; its
    // first read computes the logged alignment exactly.
    if (auto it = aligned.find(prefix); it != aligned.end()) {
      const StoryPivotEngine& engine = recovered.value()->engine();
      ASSERT_TRUE(engine.has_alignment()) << "at prefix " << prefix;
      ASSERT_TRUE(SameAlignment(engine.alignment(), it->second))
          << "at prefix " << prefix;
      ++compared;
    }
    ASSERT_OK(recovered.value()->Close());
    ++recoveries;
  }
  EXPECT_EQ(recoveries, kOps + 1);
  EXPECT_EQ(compared, aligned.size());
}

// --- Owed alignments -------------------------------------------------------
//
// Recovery replays a logged Align() by owing it: the story-id cursor
// advances by the logged count and the first reader computes the
// alignment from the cursor value before the advance. These compare the
// owed alignment with the eager one a fresh engine computes from the same
// ops.

/// How the recorded log ends after its final Align().
enum class AfterAlign { kNothing, kRefine, kRolledBackBatch };

/// A batch AddSnippets refuses halfway (its second snippet reuses an id the
/// engine holds), so the store and DF roll back.
std::vector<Snippet> DoomedBatch(const RecordedRun& run,
                                 const StoryPivotEngine& engine) {
  std::vector<Snippet> batch(2, run.corpus.snippets.back());
  batch[0].id = batch[1].id = kInvalidSnippetId;
  engine.store().ForEach([&batch](const Snippet& held) {
    batch[1].id = std::min(batch[1].id, held.id);
  });
  SP_CHECK(engine.store().Find(batch[1].id) != nullptr);
  return batch;
}

TEST(OwedAlignmentTest, LazyReplayEqualsEagerAlignment) {
  for (const size_t threads : {1u, 4u}) {
    EngineConfig config;
    config.num_threads = threads;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const RecordedRun run = MakeRun(160, 90 + seed);
      Pcg32 rng(seed);
      // Short of the run's closing RemoveSource, so every source is live.
      const size_t ops = 60 + rng.NextBounded(90);
      for (const AfterAlign after :
           {AfterAlign::kNothing, AfterAlign::kRefine,
            AfterAlign::kRolledBackBatch}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads " << threads << ", seed " << seed << ", "
                     << ops << " ops, case " << static_cast<int>(after));
        const std::string dir = FreshDir("owed");
        StoryPivotEngine reference(config);
        {
          Result<std::unique_ptr<DurableEngine>> opened =
              DurableEngine::Open(dir, FastOptions(), config);
          ASSERT_OK(opened.status());
          DurableEngine& durable = *opened.value();
          for (size_t k = 0; k < ops; ++k) {
            ASSERT_OK(Apply(run.ops[k], &durable));
            ASSERT_OK(Apply(run.ops[k], &reference));
          }
          ASSERT_OK(durable.Align());
          reference.Align();
          if (after == AfterAlign::kRefine) {
            ASSERT_OK(durable.Refine().status());
            reference.Refine();
          }
          ASSERT_OK(durable.Close());
        }
        Result<std::unique_ptr<DurableEngine>> recovered =
            DurableEngine::Open(dir, FastOptions(), config);
        ASSERT_OK(recovered.status());
        StoryPivotEngine& engine = recovered.value()->engine();
        if (after == AfterAlign::kRolledBackBatch) {
          EXPECT_FALSE(recovered.value()
                           ->AddSnippets(DoomedBatch(run, engine))
                           .ok());
          EXPECT_FALSE(reference.AddSnippets(DoomedBatch(run, reference)).ok());
        }
        // The alignment stays owed until its first read, unless a
        // replayed Refine() already computed it (and then re-aligned).
        const uint64_t computed = engine.stats().alignments_run;
        ASSERT_TRUE(engine.has_alignment());
        EXPECT_TRUE(SameAlignment(engine.alignment(), reference.alignment()));
        EXPECT_EQ(engine.stats().alignments_run,
                  computed + (after == AfterAlign::kRefine ? 0u : 1u));
        EXPECT_EQ(EngineStateFingerprint(engine),
                  EngineStateFingerprint(reference));
        EXPECT_EQ(engine.id_counters().next_story,
                  reference.id_counters().next_story);
        EXPECT_EQ(engine.id_counters().next_snippet,
                  reference.id_counters().next_snippet);
        ASSERT_OK(recovered.value()->Close());
      }
    }
  }
}

TEST(OwedAlignmentTest, MutationDropsTheOwedAlignmentUncomputed) {
  const RecordedRun run = MakeRun(120);
  const std::string dir = FreshDir("owed_dropped");
  const uint64_t recorded = RecordRun(dir, run, FastOptions());
  {
    Result<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(dir, FastOptions());
    ASSERT_OK(opened.status());
    ASSERT_OK(opened.value()->Align());
    ASSERT_OK(opened.value()->Close());
  }
  Result<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::Open(dir, FastOptions());
  ASSERT_OK(recovered.status());
  DurableEngine& durable = *recovered.value();
  EXPECT_EQ(EngineStateFingerprint(durable.engine()), recorded);
  ASSERT_TRUE(durable.engine().has_alignment());
  const uint64_t computed = durable.engine().stats().alignments_run;
  const StoryId cursor = durable.engine().id_counters().next_story;
  ASSERT_OK(durable.RemoveSnippet(durable.engine().store().next_id() - 1));
  EXPECT_FALSE(durable.engine().has_alignment());
  EXPECT_EQ(durable.engine().stats().alignments_run, computed);
  // A fresh Align() draws new ids from the advanced cursor.
  ASSERT_OK(durable.Align());
  EXPECT_EQ(durable.engine().stats().alignments_run, computed + 1);
  for (const IntegratedStory& story : durable.engine().alignment().stories) {
    EXPECT_GE(story.id, cursor);
  }
  ASSERT_OK(durable.Close());
}

/// Copies the single-segment log in `from` into a fresh `to` directory,
/// record by record through a new WAL (so each frame gets a fresh CRC),
/// with the last kAlign record's story count moved by `delta` and the
/// records after `keep` dropped.
void CopyLogWithAlteredAlign(const std::string& from, const std::string& to,
                             int64_t delta, size_t keep) {
  Result<SegmentScan> scan = WriteAheadLog::ScanSegmentFile(from, 0);
  SP_CHECK_OK(scan.status());
  std::vector<std::string> payloads;
  size_t last_align = payloads.size();
  for (const persist::WalRecord& record : scan.value().records) {
    if (static_cast<persist::WalOp>(record.payload[0]) ==
        persist::WalOp::kAlign) {
      last_align = payloads.size();
    }
    payloads.push_back(record.payload);
  }
  SP_CHECK(last_align < payloads.size());
  persist::Decoder dec(payloads[last_align]);
  dec.GetU8();
  const uint64_t count = dec.GetU64();
  SP_CHECK(static_cast<int64_t>(count) + delta >= 0);
  persist::Encoder enc;
  enc.PutU8(static_cast<uint8_t>(persist::WalOp::kAlign));
  enc.PutU64(count + delta);
  payloads[last_align] = enc.Release();
  payloads.resize(keep);
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(to, persist::WalOptions{}, 0);
  SP_CHECK_OK(wal.status());
  for (const std::string& payload : payloads) {
    const Result<uint64_t> appended = wal.value()->Append(payload);
    SP_CHECK_OK(appended.status());
  }
  SP_CHECK_OK(wal.value()->Close());
}

TEST(OwedAlignmentTest, AlteredAlignCountBeforeRefineFailsOpen) {
  const RecordedRun run = MakeRun(120);
  const std::string dir = FreshDir("altered_record");
  RecordRun(dir, run, FastOptions());
  size_t ops = 0;
  {
    Result<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(dir, FastOptions());
    ASSERT_OK(opened.status());
    ASSERT_OK(opened.value()->Align());
    ASSERT_OK(opened.value()->Refine().status());
    ops = opened.value()->next_lsn();
    ASSERT_OK(opened.value()->Close());
  }
  for (const int64_t delta : {-1, 1}) {
    SCOPED_TRACE(delta);
    const std::string altered = FreshDir("altered_refine");
    CopyLogWithAlteredAlign(dir, altered, delta, ops);
    Result<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(altered, FastOptions());
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
    EXPECT_NE(opened.status().message().find("Align story count"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(OwedAlignmentTest, TrailingAlteredAlignRecoversAndNeverReusesAnId) {
  const RecordedRun run = MakeRun(120);
  const std::string dir = FreshDir("altered_trailing_record");
  RecordRun(dir, run, FastOptions());
  size_t ops = 0;
  {
    Result<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(dir, FastOptions());
    ASSERT_OK(opened.status());
    ASSERT_OK(opened.value()->Align());
    ops = opened.value()->next_lsn();
    ASSERT_OK(opened.value()->Close());
  }
  // -3: the computed alignment holds more ids than the log says were
  // drawn; +3: fewer. A count past the story total is refused outright.
  for (const int64_t delta : {-3, 3}) {
    SCOPED_TRACE(delta);
    const std::string altered = FreshDir("altered_trailing");
    CopyLogWithAlteredAlign(dir, altered, delta, ops);
    Result<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(altered, FastOptions());
    ASSERT_OK(opened.status());
    DurableEngine& durable = *opened.value();
    ASSERT_TRUE(durable.engine().has_alignment());
    std::set<StoryId> used;
    for (const IntegratedStory& story : durable.engine().alignment().stories) {
      used.insert(story.id);
    }
    for (const StorySet* partition : durable.engine().partitions()) {
      partition->stories().ForEach(
          [&used](StoryId id, const cow::CowBox<Story>&) { used.insert(id); });
    }
    // Every id drawn from here on is new.
    EXPECT_GT(durable.engine().id_counters().next_story, *used.rbegin());
    ASSERT_OK(durable.Align());
    for (const IntegratedStory& story : durable.engine().alignment().stories) {
      EXPECT_FALSE(used.contains(story.id)) << "id " << story.id;
    }
    ASSERT_OK(durable.Close());
  }
  const std::string absurd = FreshDir("altered_absurd");
  CopyLogWithAlteredAlign(dir, absurd, 1 << 30, ops);
  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(absurd, FastOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace storypivot
