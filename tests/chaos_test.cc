// Chaos harness (DESIGN.md §12): drives the durability stack through
// seeded failpoint schedules and asserts the one property that matters —
// after any injected fault sequence, a crash and a recovery, the engine
// state equals a fault-free engine fed exactly the ACKNOWLEDGED prefix
// of the operation stream. Faults may make operations fail; they may
// never make an acknowledged operation vanish or an unacknowledged one
// appear.
//
// Everything here is deterministic: fault schedules derive from a seed,
// probability failpoints draw from per-site seeded RNGs, and retry
// backoff uses an injected no-op sleeper, so a failing seed replays
// identically under a debugger.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/corpus.h"
#include "persist/durable_engine.h"
#include "persist/wal.h"
#include "search/ranker.h"
#include "search/search_engine.h"
#include "serve/serving_engine.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/retry.h"

#ifndef STORYPIVOT_FAILPOINTS

// The whole harness depends on injection sites being compiled in.
TEST(ChaosTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "built without STORYPIVOT_FAILPOINTS; chaos tests "
                  "need injection sites compiled in";
}

#else  // STORYPIVOT_FAILPOINTS

namespace storypivot {
namespace {

using failpoint::Probability;
using failpoint::Registry;
using failpoint::Trigger;
using persist::DurabilityOptions;
using persist::DurableEngine;
using persist::FsyncPolicy;

::testing::AssertionResult IsOk(const Status& status) {
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << status.ToString();
}
template <typename T>
::testing::AssertionResult IsOk(const Result<T>& result) {
  return IsOk(result.status());
}

#define ASSERT_OK(expr) ASSERT_TRUE(IsOk((expr)))

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sp_chaos_" + name;
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

// --- Operation plan --------------------------------------------------------
//
// One fixed mutation stream, replayable against both a DurableEngine
// (under faults) and a plain StoryPivotEngine (the fault-free reference
// fed the acknowledged prefix).

enum class OpKind {
  kImport,
  kRegisterSource,
  kAddSnippet,
  kAddSnippets,
  kRemoveSnippet,
  kRefine,
  kAlign,
};

struct PlanOp {
  OpKind kind = OpKind::kAddSnippet;
  std::string text;
  uint64_t id64 = 0;
  Snippet snippet;
  std::vector<Snippet> batch;
};

struct Plan {
  datagen::Corpus corpus;
  std::vector<PlanOp> ops;
};

Plan MakePlan(size_t total_ops) {
  Plan plan;
  datagen::CorpusConfig config;
  config.seed = 77;
  config.num_sources = 3;
  config.num_stories = 6;
  config.target_num_snippets = static_cast<int>(total_ops * 3 + 100);
  plan.corpus = datagen::CorpusGenerator(config).Generate();

  plan.ops.push_back(PlanOp{OpKind::kImport, "", 0, {}, {}});
  for (const SourceInfo& source : plan.corpus.sources) {
    plan.ops.push_back(PlanOp{OpKind::kRegisterSource, source.name, 0,
                              {}, {}});
  }
  size_t next = 0;
  uint64_t added = 0;
  std::vector<uint64_t> removable;
  auto take = [&]() {
    SP_CHECK(next < plan.corpus.snippets.size());
    Snippet snippet = plan.corpus.snippets[next++];
    snippet.id = kInvalidSnippetId;
    return snippet;
  };
  while (plan.ops.size() < total_ops) {
    const size_t i = plan.ops.size();
    PlanOp op;
    if (i % 37 == 0) {
      op.kind = OpKind::kAlign;
    } else if (i % 29 == 0) {
      op.kind = OpKind::kRefine;
    } else if (i % 17 == 0 && !removable.empty()) {
      op.kind = OpKind::kRemoveSnippet;
      op.id64 = removable.back();
      removable.pop_back();
    } else if (i % 11 == 0) {
      op.kind = OpKind::kAddSnippets;
      for (int j = 0; j < 3; ++j) op.batch.push_back(take());
      added += 3;
    } else {
      op.kind = OpKind::kAddSnippet;
      op.snippet = take();
      if (added < 20) removable.push_back(added);
      ++added;
    }
    plan.ops.push_back(std::move(op));
  }
  return plan;
}

Status Apply(const Plan& plan, const PlanOp& op, DurableEngine* engine) {
  switch (op.kind) {
    case OpKind::kImport:
      return engine->ImportVocabularies(*plan.corpus.entity_vocabulary,
                                        *plan.corpus.keyword_vocabulary);
    case OpKind::kRegisterSource:
      return engine->RegisterSource(op.text).status();
    case OpKind::kAddSnippet:
      return engine->AddSnippet(op.snippet).status();
    case OpKind::kAddSnippets:
      return engine->AddSnippets(op.batch).status();
    case OpKind::kRemoveSnippet:
      return engine->RemoveSnippet(op.id64);
    case OpKind::kRefine:
      return engine->Refine().status();
    case OpKind::kAlign:
      return engine->Align();
  }
  return Status::Internal("unhandled op");
}

Status Apply(const Plan& plan, const PlanOp& op, StoryPivotEngine* engine) {
  switch (op.kind) {
    case OpKind::kImport:
      return engine->ImportVocabularies(*plan.corpus.entity_vocabulary,
                                        *plan.corpus.keyword_vocabulary);
    case OpKind::kRegisterSource:
      engine->RegisterSource(op.text);
      return Status::OK();
    case OpKind::kAddSnippet:
      return engine->AddSnippet(op.snippet).status();
    case OpKind::kAddSnippets:
      return engine->AddSnippets(op.batch).status();
    case OpKind::kRemoveSnippet:
      return engine->RemoveSnippet(op.id64);
    case OpKind::kRefine:
      engine->Refine();
      return Status::OK();
    case OpKind::kAlign:
      engine->Align();
      return Status::OK();
  }
  return Status::Internal("unhandled op");
}

/// Fingerprint of a fresh fault-free engine fed ops [0, acked).
uint64_t ReferenceFingerprint(const Plan& plan, size_t acked) {
  StoryPivotEngine reference;
  for (size_t i = 0; i < acked; ++i) {
    SP_CHECK_OK(Apply(plan, plan.ops[i], &reference));
  }
  return EngineStateFingerprint(reference);
}

DurabilityOptions ChaosOptions() {
  DurabilityOptions options;
  // Every acked record is durable, so the acked prefix IS the recovery
  // contract (no fsync-policy slack to reason about).
  options.wal.fsync = FsyncPolicy::kEveryRecord;
  // Small segments force rotations mid-run so rotation faults get hit.
  options.wal.segment_bytes = 16 << 10;
  // Exercise the best-effort auto-checkpoint path under faults too.
  options.checkpoint_every_ops = 25;
  // Backoff must not cost wall-clock time across thousands of retries.
  options.wal.retry_sleep = [](uint64_t) {};
  return options;
}

/// The sites a fault schedule may arm. Excludes the withdraw/repair
/// sites (fs.append.rewind, fs.truncate): those model the restore path
/// ITSELF failing, which voids the acked-prefix guarantee by design —
/// they get targeted tests instead of schedule coverage.
const char* const kScheduleSites[] = {
    "wal.append",      "fs.append.write", "fs.append.partial",
    "fs.append.sync",  "wal.rotate",      "fs.write.write",
    "fs.write.fsync",  "checkpoint.write",
};

/// Deterministic per-seed schedule: each site gets an independent fire
/// probability in [0, 0.12] and a transient-vs-permanent coin flip
/// (mostly transient, so runs make progress through the retry layer).
void ArmSchedule(uint64_t seed) {
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (const char* site : kScheduleSites) {
    const double p =
        0.12 * (static_cast<double>(next() % 1000) / 1000.0);
    const bool transient = next() % 10 < 8;
    Registry::Instance().Arm(site, Probability(p, seed, transient));
  }
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Instance().DisarmAll(); }
  void TearDown() override { Registry::Instance().DisarmAll(); }
};

// --- The core chaos property ----------------------------------------------

TEST_F(ChaosTest, RecoveryMatchesAckedPrefixAcrossSeeds) {
  const Plan plan = MakePlan(120);
  const std::string dir = FreshDir("seeds");

  int degraded_runs = 0;
  int clean_runs = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Result<std::vector<std::string>> stale = ListDirectory(dir);
    ASSERT_OK(stale.status());
    for (const std::string& entry : stale.value()) {
      ASSERT_OK(RemoveFile(dir + "/" + entry));
    }

    ArmSchedule(seed);
    size_t acked = 0;
    {
      Result<std::unique_ptr<DurableEngine>> opened =
          DurableEngine::Open(dir, ChaosOptions());
      // Opening an empty dir writes nothing fallible, but a schedule
      // could in principle hit the WAL segment creation; tolerate it.
      if (!opened.ok()) {
        Registry::Instance().DisarmAll();
        continue;
      }
      DurableEngine& engine = *opened.value();
      for (const PlanOp& op : plan.ops) {
        Status applied = Apply(plan, op, &engine);
        if (applied.ok()) {
          ++acked;
          continue;
        }
        // First failure ends the run. A degraded engine must honour
        // the read-only contract on the spot: mutations rejected with
        // kDegraded, reads served from the state that is ahead of the
        // log by EXACTLY the unlogged mutation (apply-then-log).
        if (engine.degraded()) {
          EXPECT_FALSE(engine.degraded_cause().ok());
          Status rejected = engine.Align();
          EXPECT_EQ(rejected.code(), StatusCode::kDegraded)
              << rejected.ToString();
          EXPECT_EQ(EngineStateFingerprint(engine.engine()),
                    ReferenceFingerprint(plan, acked + 1));
          ++degraded_runs;
        }
        break;
      }
      if (acked == plan.ops.size()) ++clean_runs;
      // CRASH: the engine is destroyed without Close(). (With
      // fsync=kEveryRecord the destructor's best-effort close cannot
      // add or lose acked records — the withdraw contract keeps the
      // file equal to the acked stream at all times.)
    }
    Registry::Instance().DisarmAll();

    Result<std::unique_ptr<DurableEngine>> recovered =
        DurableEngine::Open(dir, ChaosOptions());
    ASSERT_OK(recovered.status());
    EXPECT_EQ(recovered.value()->next_lsn(), acked);
    const uint64_t got =
        EngineStateFingerprint(recovered.value()->engine());
    EXPECT_EQ(got, ReferenceFingerprint(plan, acked));
    ASSERT_OK(recovered.value()->Close());
  }
  // The schedule space must actually cover both outcomes, or the suite
  // is vacuous.
  EXPECT_GT(degraded_runs, 0);
  EXPECT_GT(clean_runs, 0);
}

// --- Degraded-mode contract ------------------------------------------------

TEST_F(ChaosTest, PermanentAppendFailureDegradesAndReopenRecovers) {
  const Plan plan = MakePlan(40);
  const std::string dir = FreshDir("degrade");
  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, ChaosOptions());
  ASSERT_OK(opened.status());
  DurableEngine& engine = *opened.value();

  // Let 10 ops through, then a permanent fault on the 11th append.
  Registry::Instance().Arm(
      "wal.append", failpoint::OneShot(11, /*transient=*/false));
  size_t acked = 0;
  Status failure;
  for (const PlanOp& op : plan.ops) {
    failure = Apply(plan, op, &engine);
    if (!failure.ok()) break;
    ++acked;
  }
  ASSERT_EQ(acked, 10u);
  EXPECT_EQ(failure.code(), StatusCode::kDegraded) << failure.ToString();
  ASSERT_TRUE(engine.degraded());
  EXPECT_TRUE(failpoint::IsInjected(engine.degraded_cause()));

  // Read-only: queries live, every mutation kind rejected with kDegraded.
  EXPECT_GT(engine.engine().store().size(), 0u);
  EXPECT_EQ(engine.AddSnippet(plan.ops[10].snippet).status().code(),
            StatusCode::kDegraded);
  EXPECT_EQ(engine.Refine().status().code(), StatusCode::kDegraded);
  EXPECT_EQ(engine.Checkpoint().code(), StatusCode::kDegraded);

  // Reopen rebuilds from disk: the acked prefix, nothing more.
  ASSERT_OK(engine.Reopen());
  EXPECT_FALSE(engine.degraded());
  EXPECT_TRUE(engine.degraded_cause().ok());
  EXPECT_EQ(engine.next_lsn(), acked);
  EXPECT_EQ(EngineStateFingerprint(engine.engine()),
            ReferenceFingerprint(plan, acked));

  // And the engine takes mutations again.
  for (size_t i = acked; i < plan.ops.size(); ++i) {
    ASSERT_OK(Apply(plan, plan.ops[i], &engine));
  }
  EXPECT_EQ(EngineStateFingerprint(engine.engine()),
            ReferenceFingerprint(plan, plan.ops.size()));
  ASSERT_OK(engine.Close());
}

// Reopen() replaces the engine OBJECT wholesale. Before the fix it
// dropped the registered IngestObserver on the floor: an attached
// SearchEngine kept serving from its pre-recovery index (and a dangling
// engine pointer) — silently stale search results after every recovery.
// Now Recover() carries the observer over to the rebuilt engine and
// fires OnEngineReplaced, which reseats the pointer and rebuilds the
// index. The check is the search subsystem's own equivalence contract:
// the indexed path must match the index-free scan over the recovered
// engine, before AND after post-recovery ingest.
TEST_F(ChaosTest, ReopenReattachesSearchObserverAndRebuildsIndex) {
  const Plan plan = MakePlan(40);
  const std::string dir = FreshDir("reopen_search");
  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, ChaosOptions());
  ASSERT_OK(opened.status());
  DurableEngine& engine = *opened.value();
  search::SearchEngine searcher(&engine.engine());

  Registry::Instance().Arm("wal.append",
                           failpoint::OneShot(30, /*transient=*/false));
  size_t acked = 0;
  for (const PlanOp& op : plan.ops) {
    if (!Apply(plan, op, &engine).ok()) break;
    ++acked;
  }
  ASSERT_TRUE(engine.degraded());

  ASSERT_OK(engine.Reopen());

  // Query terms drawn from the recovered content itself, so the scan
  // side is non-empty no matter which generated ids survived the
  // acked prefix.
  search::ParsedQuery query;
  std::set<std::pair<search::Field, text::TermId>> used;
  engine.engine().store().ForEach([&](const Snippet& snippet) {
    if (query.terms.size() >= 4) return;
    if (!snippet.entities.empty() &&
        used.insert({search::Field::kEntity,
                     snippet.entities.entries().front().first})
            .second) {
      query.terms.push_back({search::Field::kEntity,
                             snippet.entities.entries().front().first,
                             {},
                             "e"});
    }
    if (query.terms.size() < 4 && !snippet.keywords.empty() &&
        used.insert({search::Field::kKeyword,
                     snippet.keywords.entries().front().first})
            .second) {
      query.terms.push_back({search::Field::kKeyword,
                             snippet.keywords.entries().front().first,
                             {},
                             "k"});
    }
  });
  ASSERT_FALSE(query.terms.empty());
  search::SearchOptions options;
  options.k = 25;

  // The recovery discarded the unlogged mutation the index had already
  // observed, so a stale index would disagree with the scan here.
  std::vector<search::StoryHit> indexed = searcher.Search(query, options);
  std::vector<search::StoryHit> scanned =
      search::RankStoriesScan(searcher.engine(), query, options);
  EXPECT_FALSE(scanned.empty());
  EXPECT_EQ(indexed, scanned);

  // And the observer must still be ATTACHED: post-recovery ingest has
  // to keep flowing into the index.
  for (size_t i = acked; i < plan.ops.size(); ++i) {
    ASSERT_OK(Apply(plan, plan.ops[i], &engine));
  }
  EXPECT_EQ(searcher.Search(query, options),
            search::RankStoriesScan(searcher.engine(), query, options));
  ASSERT_OK(engine.Close());
}

// An in-place Reopen() keeps the ServingEngine, its SearchEngine and its
// capture cache; only the recovery publish (CommitEvent::kRecovery)
// makes the rebuilt state visible. The failing append lands on an
// AddSnippet, so the live index holds a snippet the log does not, and
// the pinned snapshot must drop it.
TEST_F(ChaosTest, ServingEngineReopenPublishesRecoveredState) {
  const Plan plan = MakePlan(40);
  const std::string dir = FreshDir("reopen_serving");
  serve::ServerOptions server_options;
  server_options.num_threads = 1;
  Result<std::unique_ptr<serve::ServingEngine>> opened =
      serve::ServingEngine::Open(dir, server_options, ChaosOptions());
  ASSERT_OK(opened.status());
  serve::ServingEngine& serving = *opened.value();
  DurableEngine& durable = serving.durable();

  // One append per op: the 11th append is op 10.
  ASSERT_EQ(plan.ops[10].kind, OpKind::kAddSnippet);
  Registry::Instance().Arm("wal.append",
                           failpoint::OneShot(11, /*transient=*/false));
  size_t acked = 0;
  for (const PlanOp& op : plan.ops) {
    if (!Apply(plan, op, &durable).ok()) break;
    ++acked;
  }
  ASSERT_EQ(acked, 10u);
  ASSERT_TRUE(durable.degraded());
  const size_t live_documents = serving.search().index().num_documents();
  const uint64_t epoch_before = serving.epochs().current_epoch();

  ASSERT_OK(durable.Reopen());
  std::shared_ptr<const serve::ReadSnapshot> pinned = serving.epochs().Pin();
  EXPECT_GT(pinned->epoch(), epoch_before);
  EXPECT_EQ(pinned->index().num_documents(), durable.engine().store().size());
  EXPECT_EQ(live_documents, durable.engine().store().size() + 1);
  EXPECT_EQ(EngineStateFingerprint(durable.engine()),
            ReferenceFingerprint(plan, acked));

  const text::Vocabulary& entities =
      std::as_const(durable.engine()).entity_vocabulary();
  size_t non_empty = 0;
  for (text::TermId id = 0; id < entities.size(); ++id) {
    const std::string& name = entities.TermOf(id);
    std::vector<search::StoryHit> hits = pinned->Search(name);
    EXPECT_EQ(hits, serving.search().Search(name)) << name;
    if (!hits.empty()) ++non_empty;
  }
  EXPECT_GT(non_empty, 0u);
}

TEST_F(ChaosTest, ReopenFailureKeepsEngineDegradedAndReadable) {
  const Plan plan = MakePlan(30);
  const std::string dir = FreshDir("reopen_fail");
  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, ChaosOptions());
  ASSERT_OK(opened.status());
  DurableEngine& engine = *opened.value();

  Registry::Instance().Arm("wal.append",
                           failpoint::OneShot(8, /*transient=*/false));
  size_t acked = 0;
  for (const PlanOp& op : plan.ops) {
    if (!Apply(plan, op, &engine).ok()) break;
    ++acked;
  }
  ASSERT_TRUE(engine.degraded());
  const size_t live_size = engine.engine().store().size();

  // Recovery itself fails: the engine must stay degraded on its OLD
  // readable state, and a later Reopen must still be able to succeed.
  Registry::Instance().Arm("fs.read.open",
                           failpoint::OneShot(1, /*transient=*/false));
  EXPECT_FALSE(engine.Reopen().ok());
  EXPECT_TRUE(engine.degraded());
  EXPECT_EQ(engine.engine().store().size(), live_size);

  Registry::Instance().DisarmAll();
  ASSERT_OK(engine.Reopen());
  EXPECT_FALSE(engine.degraded());
  EXPECT_EQ(engine.next_lsn(), acked);
  EXPECT_EQ(EngineStateFingerprint(engine.engine()),
            ReferenceFingerprint(plan, acked));
  ASSERT_OK(engine.Close());
}

// --- Transient faults are invisible ---------------------------------------

TEST_F(ChaosTest, TransientFaultsRetryToSuccessWithIdenticalState) {
  const Plan plan = MakePlan(60);
  const std::string dir = FreshDir("transient");
  DurabilityOptions options = ChaosOptions();
  // p=0.25 per evaluation, all transient: with 4 attempts per op the
  // chance of exhausting any retry in this short run is ~(0.25)^4 per
  // evaluation — the fixed seeds below are known-good, and determinism
  // keeps them that way.
  Registry::Instance().Arm(
      "fs.append.write", Probability(0.25, /*seed=*/3, /*transient=*/true));
  Registry::Instance().Arm(
      "fs.append.sync", Probability(0.25, /*seed=*/4, /*transient=*/true));

  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, options);
  ASSERT_OK(opened.status());
  DurableEngine& engine = *opened.value();
  for (const PlanOp& op : plan.ops) {
    ASSERT_OK(Apply(plan, op, &engine));
  }
  EXPECT_GT(Registry::Instance().Stats("fs.append.write").fires, 0u);
  EXPECT_EQ(EngineStateFingerprint(engine.engine()),
            ReferenceFingerprint(plan, plan.ops.size()));
  ASSERT_OK(engine.Close());
  Registry::Instance().DisarmAll();

  // The WAL on disk is indistinguishable from a fault-free run's.
  Result<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::Open(dir, ChaosOptions());
  ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered.value()->next_lsn(), plan.ops.size());
  EXPECT_EQ(EngineStateFingerprint(recovered.value()->engine()),
            ReferenceFingerprint(plan, plan.ops.size()));
  ASSERT_OK(recovered.value()->Close());
}

// --- Faults during recovery itself ----------------------------------------

TEST_F(ChaosTest, RecoverySiteSweepFailsCleanOrRecoversCorrect) {
  const Plan plan = MakePlan(50);
  const std::string dir = FreshDir("recovery_sweep");
  // Lay down a real run (with a checkpoint + WAL tail to recover).
  {
    Result<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(dir, ChaosOptions());
    ASSERT_OK(opened.status());
    for (const PlanOp& op : plan.ops) {
      ASSERT_OK(Apply(plan, op, opened.value().get()));
    }
    // Crash without Close.
  }
  const uint64_t want = ReferenceFingerprint(plan, plan.ops.size());

  const char* const kRecoverySites[] = {
      "fs.list",     "fs.read.open",   "fs.stat",
      "fs.append.open", "fs.dir.sync", "fs.truncate",
  };
  for (const char* site : kRecoverySites) {
    SCOPED_TRACE(site);
    for (uint64_t shot = 1; shot <= 3; ++shot) {
      Registry::Instance().Arm(site, failpoint::OneShot(shot));
      Result<std::unique_ptr<DurableEngine>> faulted =
          DurableEngine::Open(dir, ChaosOptions());
      if (faulted.ok()) {
        // The fault hit a tolerated path (e.g. a checkpoint fallback):
        // recovery must still be CORRECT, not just alive.
        EXPECT_EQ(EngineStateFingerprint(faulted.value()->engine()),
                  want);
        ASSERT_OK(faulted.value()->Close());
      }
      Registry::Instance().DisarmAll();
      // After the fault clears, recovery always succeeds bit-identically.
      Result<std::unique_ptr<DurableEngine>> recovered =
          DurableEngine::Open(dir, ChaosOptions());
      ASSERT_OK(recovered.status());
      EXPECT_EQ(recovered.value()->next_lsn(), plan.ops.size());
      EXPECT_EQ(EngineStateFingerprint(recovered.value()->engine()),
                want);
      ASSERT_OK(recovered.value()->Close());
    }
  }
}

// --- Rotation-after-ack semantics -----------------------------------------

TEST_F(ChaosTest, RotateFailureAfterDurableAppendStillAcks) {
  const Plan plan = MakePlan(40);
  const std::string dir = FreshDir("rotate");
  DurabilityOptions options = ChaosOptions();
  options.wal.segment_bytes = 1;  // Rotate after every record.
  options.checkpoint_every_ops = 0;

  Result<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(dir, options);
  ASSERT_OK(opened.status());
  DurableEngine& engine = *opened.value();

  Registry::Instance().Arm("wal.rotate",
                           failpoint::OneShot(5, /*transient=*/false));
  size_t acked = 0;
  for (const PlanOp& op : plan.ops) {
    Status applied = Apply(plan, op, &engine);
    if (!applied.ok()) {
      // The op whose rotation failed was still ACKED (it is durable);
      // only the NEXT op fails, because the log closed itself.
      EXPECT_EQ(applied.code(), StatusCode::kDegraded);
      break;
    }
    ++acked;
  }
  ASSERT_TRUE(engine.degraded());
  EXPECT_GE(acked, 5u);
  Registry::Instance().DisarmAll();

  // Release the degraded engine first: the WAL-directory registry
  // refuses a second live appender on the same directory.
  opened.value().reset();
  Result<std::unique_ptr<DurableEngine>> recovered =
      DurableEngine::Open(dir, options);
  ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered.value()->next_lsn(), acked);
  EXPECT_EQ(EngineStateFingerprint(recovered.value()->engine()),
            ReferenceFingerprint(plan, acked));
  ASSERT_OK(recovered.value()->Close());
}

}  // namespace
}  // namespace storypivot

#endif  // STORYPIVOT_FAILPOINTS
