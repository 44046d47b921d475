// Serial-vs-parallel equivalence for the engine's internal parallel
// paths (DESIGN.md §9): batch ingestion via AddSnippets, alignment pair
// scoring and the counterpart graph behind refinement must produce
// bit-identical results for every thread count, and a failed batch must
// leave no trace (all-or-nothing).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "model/time.h"
#include "util/logging.h"
#include "util/timer.h"

namespace storypivot {
namespace {

Snippet MakeSnippet(SourceId source, Timestamp ts,
                    std::vector<std::pair<text::TermId, double>> entities,
                    std::vector<std::pair<text::TermId, double>> keywords) {
  Snippet s;
  s.source = source;
  s.timestamp = ts;
  s.entities = text::TermVector::FromEntries(std::move(entities));
  s.keywords = text::TermVector::FromEntries(std::move(keywords));
  return s;
}

datagen::Corpus TestCorpus() {
  datagen::CorpusConfig config;
  config.seed = 11;
  config.num_sources = 6;
  config.num_stories = 24;
  config.target_num_snippets = 900;
  return datagen::CorpusGenerator(config).Generate();
}

std::unique_ptr<StoryPivotEngine> MakeEngine(const datagen::Corpus& corpus,
                                             size_t num_threads,
                                             bool prune_with_entities) {
  EngineConfig config;
  config.num_threads = num_threads;
  config.identifier.prune_with_entities = prune_with_entities;
  auto engine = std::make_unique<StoryPivotEngine>(config);
  SP_CHECK_OK(engine->ImportVocabularies(*corpus.entity_vocabulary,
                                         *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
  return engine;
}

/// Feeds the corpus through AddSnippets in fixed-size batches.
void FeedBatched(StoryPivotEngine* engine, const datagen::Corpus& corpus,
                 size_t batch_size) {
  std::vector<Snippet> batch;
  for (const Snippet& snippet : corpus.snippets) {
    batch.push_back(snippet);
    if (batch.size() == batch_size) {
      SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
}

/// Exact per-source assignment: (source, snippet, story) triples, sorted.
/// Story ids are included verbatim — the determinism contract is
/// bit-identical state, not merely isomorphic clusterings.
std::vector<std::tuple<SourceId, SnippetId, StoryId>> PartitionFingerprint(
    const StoryPivotEngine& engine) {
  std::vector<std::tuple<SourceId, SnippetId, StoryId>> out;
  for (const SourceInfo& info : engine.sources()) {
    const StorySet* partition = engine.partition(info.id);
    SP_CHECK(partition != nullptr);
    for (const auto& [ts, sid] : partition->snippet_times().entries()) {
      out.emplace_back(info.id, sid, partition->StoryOf(sid));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectIdenticalAlignment(const AlignmentResult& a,
                              const AlignmentResult& b) {
  ASSERT_EQ(a.stories.size(), b.stories.size());
  for (size_t i = 0; i < a.stories.size(); ++i) {
    EXPECT_EQ(a.stories[i].id, b.stories[i].id) << "story " << i;
    EXPECT_EQ(a.stories[i].members, b.stories[i].members) << "story " << i;
  }
  EXPECT_EQ(a.integrated_of, b.integrated_of);
  EXPECT_EQ(a.roles, b.roles);
  EXPECT_EQ(a.counterpart, b.counterpart);
  EXPECT_EQ(a.member_index, b.member_index);
  EXPECT_EQ(a.num_pairs_scored, b.num_pairs_scored);
}

/// Parameterised over the identification candidate generator: the
/// window scan (default) or entity pruning.
class ParallelEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelEquivalence, BatchIngestIsThreadCountInvariant) {
  const bool prune_with_entities = GetParam();
  datagen::Corpus corpus = TestCorpus();
  auto serial = MakeEngine(corpus, /*num_threads=*/1, prune_with_entities);
  auto parallel = MakeEngine(corpus, /*num_threads=*/4, prune_with_entities);
  FeedBatched(serial.get(), corpus, /*batch_size=*/128);
  FeedBatched(parallel.get(), corpus, /*batch_size=*/128);

  EXPECT_EQ(PartitionFingerprint(*serial), PartitionFingerprint(*parallel));
  EXPECT_EQ(serial->TotalStories(), parallel->TotalStories());
  EXPECT_EQ(serial->stats().snippets_ingested,
            parallel->stats().snippets_ingested);
  EXPECT_EQ(serial->document_frequency().num_documents(),
            parallel->document_frequency().num_documents());

  // The downstream alignment (itself parallel in one engine) must agree
  // in every field.
  ExpectIdenticalAlignment(serial->Align(), parallel->Align());

  // So must refinement, which reads the parallel-built counterpart graph,
  // and the re-alignment that ends it.
  const RefinementStats serial_stats = serial->Refine();
  const RefinementStats parallel_stats = parallel->Refine();
  EXPECT_EQ(serial_stats.snippets_moved, parallel_stats.snippets_moved);
  EXPECT_EQ(serial_stats.stories_created, parallel_stats.stories_created);
  EXPECT_EQ(serial_stats.stories_split, parallel_stats.stories_split);
  EXPECT_EQ(serial_stats.conflicts_examined,
            parallel_stats.conflicts_examined);
  EXPECT_EQ(PartitionFingerprint(*serial), PartitionFingerprint(*parallel));
  ExpectIdenticalAlignment(serial->alignment(), parallel->alignment());
}

INSTANTIATE_TEST_SUITE_P(Candidates, ParallelEquivalence,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "EntityPruning" : "WindowScan";
                         });

TEST(ParallelAlignTest, MatchesSerialOnIdenticalState) {
  // Both engines ingest identically (one snippet at a time); only the
  // alignment pass differs in thread count.
  datagen::Corpus corpus = TestCorpus();
  auto serial =
      MakeEngine(corpus, /*num_threads=*/1, /*prune_with_entities=*/false);
  auto parallel =
      MakeEngine(corpus, /*num_threads=*/4, /*prune_with_entities=*/false);
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    SP_CHECK_OK(serial->AddSnippet(std::move(copy)));
    copy = snippet;
    SP_CHECK_OK(parallel->AddSnippet(std::move(copy)));
  }
  ASSERT_EQ(PartitionFingerprint(*serial), PartitionFingerprint(*parallel));
  ExpectIdenticalAlignment(serial->Align(), parallel->Align());
}

// identify_time_ms is wall time: a multi-source batch identified on four
// threads adds no more to it than the wall time around the call, while
// the summed per-shard times go to identify_cpu_ms.
TEST(IdentifyTimeTest, BatchAddsAtMostItsWallTime) {
  datagen::Corpus corpus = TestCorpus();
  auto engine =
      MakeEngine(corpus, /*num_threads=*/4, /*prune_with_entities=*/false);
  std::vector<Snippet> batch = corpus.snippets;
  ASSERT_GT(corpus.sources.size(), 1u);
  const double before = engine->stats().identify_time_ms;
  WallTimer timer;
  SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
  const double wall_ms = timer.ElapsedMillis();
  EXPECT_LE(engine->stats().identify_time_ms - before, wall_ms);
  EXPECT_GT(engine->stats().identify_cpu_ms, 0.0);
}

// On one thread the shards run one after another inside the batch, so
// their summed time cannot exceed the batch's wall time.
TEST(IdentifyTimeTest, ShardTimesFitTheWallTimeOnOneThread) {
  datagen::Corpus corpus = TestCorpus();
  auto engine =
      MakeEngine(corpus, /*num_threads=*/1, /*prune_with_entities=*/false);
  FeedBatched(engine.get(), corpus, /*batch_size=*/128);
  EXPECT_GT(engine->stats().identify_cpu_ms, 0.0);
  EXPECT_LE(engine->stats().identify_cpu_ms,
            engine->stats().identify_time_ms);
}

TEST(AddSnippetsTest, EmptyBatchIsNoOp) {
  StoryPivotEngine engine;
  Result<std::vector<SnippetId>> ids = engine.AddSnippets({});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids.value().empty());
  EXPECT_EQ(engine.stats().snippets_ingested, 0u);
}

TEST(AddSnippetsTest, UnregisteredSourceRejectsWholeBatch) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  std::vector<Snippet> batch;
  batch.push_back(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}}));
  batch.push_back(MakeSnippet(src + 7, 10, {{0, 1.0}}, {{5, 1.0}}));
  Result<std::vector<SnippetId>> ids = engine.AddSnippets(std::move(batch));
  EXPECT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument);
  // Upfront validation: the valid leading snippet was not ingested.
  EXPECT_EQ(engine.store().size(), 0u);
  EXPECT_EQ(engine.document_frequency().num_documents(), 0);
  EXPECT_EQ(engine.stats().snippets_ingested, 0u);
  EXPECT_EQ(engine.TotalStories(), 0u);
}

TEST(AddSnippetsTest, MidBatchFailureRollsBackEverything) {
  // Regression for the all-or-nothing contract: a store collision in the
  // middle of a batch (duplicate explicit ids) must unwind the snippets
  // and document-frequency rows already written for the batch, leaving
  // pre-batch state untouched.
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SnippetId keep =
      engine.AddSnippet(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}})).value();
  const int64_t df_before = engine.document_frequency().num_documents();
  const size_t stories_before = engine.TotalStories();
  const uint64_t ingested_before = engine.stats().snippets_ingested;

  std::vector<Snippet> batch;
  batch.push_back(MakeSnippet(src, 10, {{1, 1.0}}, {{6, 1.0}}));
  batch.back().id = 500;
  batch.push_back(MakeSnippet(src, 20, {{2, 1.0}}, {{7, 1.0}}));
  batch.back().id = 501;
  batch.push_back(MakeSnippet(src, 30, {{3, 1.0}}, {{8, 1.0}}));
  batch.back().id = 500;  // Collides with the first batch member.
  Result<std::vector<SnippetId>> ids = engine.AddSnippets(std::move(batch));
  EXPECT_FALSE(ids.ok());
  EXPECT_EQ(ids.status().code(), StatusCode::kAlreadyExists);

  EXPECT_EQ(engine.store().size(), 1u);
  EXPECT_NE(engine.store().Find(keep), nullptr);
  EXPECT_EQ(engine.store().Find(500), nullptr);
  EXPECT_EQ(engine.store().Find(501), nullptr);
  EXPECT_EQ(engine.document_frequency().num_documents(), df_before);
  EXPECT_EQ(engine.TotalStories(), stories_before);
  EXPECT_EQ(engine.stats().snippets_ingested, ingested_before);
  // The engine remains fully usable after the rollback.
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 40, {{0, 1.0}}, {{5, 1.0}})));
  EXPECT_EQ(engine.store().size(), 2u);
}

TEST(AddSnippetsTest, FailedBatchKeepsTheAlignmentAndItsGraph) {
  // A rolled-back batch restores the snippet set and DF, so the last
  // alignment stays current and Refine() runs on its counterpart graph.
  StoryPivotEngine engine;
  SourceId a = engine.RegisterSource("a");
  SourceId b = engine.RegisterSource("b");
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(a, 0, {{0, 1.0}}, {{5, 1.0}})));
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(b, 0, {{0, 1.0}}, {{5, 1.0}})));
  const size_t integrated = engine.Align().stories.size();

  std::vector<Snippet> batch;
  batch.push_back(MakeSnippet(a, 10, {{1, 1.0}}, {{6, 1.0}}));
  batch.back().id = 500;
  batch.push_back(MakeSnippet(b, 10, {{1, 1.0}}, {{6, 1.0}}));
  batch.back().id = 500;  // Collides with the first batch member.
  EXPECT_FALSE(engine.AddSnippets(std::move(batch)).ok());
  ASSERT_TRUE(engine.has_alignment());
  ASSERT_NE(engine.alignment().graph, nullptr);
  engine.Refine();
  EXPECT_EQ(engine.alignment().stories.size(), integrated);
}

}  // namespace
}  // namespace storypivot
