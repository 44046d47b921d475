#include <gtest/gtest.h>

#include <cstdio>

#include "core/snapshot.h"
#include "datagen/corpus.h"
#include "eval/experiment.h"
#include "util/logging.h"

namespace storypivot {
namespace {

std::unique_ptr<StoryPivotEngine> BuildPopulatedEngine() {
  datagen::CorpusConfig corpus_config;
  corpus_config.seed = 55;
  corpus_config.num_sources = 4;
  corpus_config.num_stories = 10;
  corpus_config.target_num_snippets = 500;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();
  auto engine = std::make_unique<StoryPivotEngine>();
  SP_CHECK(engine
               ->ImportVocabularies(*corpus.entity_vocabulary,
                                    *corpus.keyword_vocabulary)
               .ok());
  for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(engine->AddSnippet(std::move(copy)));
  }
  return engine;
}

// Canonical clustering fingerprint for state comparison.
std::vector<std::pair<SnippetId, StoryId>> Fingerprint(
    const StoryPivotEngine& engine) {
  std::vector<std::pair<SnippetId, StoryId>> out;
  for (const StorySet* partition : engine.partitions()) {
    for (const auto& [ts, sid] : partition->snippet_times().entries()) {
      out.push_back({sid, partition->StoryOf(sid)});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  std::unique_ptr<StoryPivotEngine> original = BuildPopulatedEngine();
  std::string snapshot = SaveSnapshot(*original);

  Result<std::unique_ptr<StoryPivotEngine>> loaded =
      LoadSnapshot(snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  StoryPivotEngine& restored = *loaded.value();

  EXPECT_EQ(restored.store().size(), original->store().size());
  EXPECT_EQ(restored.sources().size(), original->sources().size());
  EXPECT_EQ(restored.TotalStories(), original->TotalStories());
  EXPECT_EQ(Fingerprint(restored), Fingerprint(*original));
  const StoryPivotEngine& const_restored = restored;
  const StoryPivotEngine& const_original = *original;
  EXPECT_EQ(const_restored.entity_vocabulary().size(),
            const_original.entity_vocabulary().size());
  EXPECT_EQ(const_restored.keyword_vocabulary().size(),
            const_original.keyword_vocabulary().size());
  // Document-frequency state was rebuilt (needed for further ingestion).
  EXPECT_EQ(restored.document_frequency().num_documents(),
            original->document_frequency().num_documents());
}

TEST(SnapshotTest, SnippetContentSurvives) {
  std::unique_ptr<StoryPivotEngine> original = BuildPopulatedEngine();
  auto loaded = LoadSnapshot(SaveSnapshot(*original));
  ASSERT_TRUE(loaded.ok());
  original->store().ForEach([&](const Snippet& snippet) {
    const Snippet* restored = loaded.value()->store().Find(snippet.id);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->timestamp, snippet.timestamp);
    EXPECT_EQ(restored->description, snippet.description);
    EXPECT_EQ(restored->document_url, snippet.document_url);
    EXPECT_EQ(restored->truth_story, snippet.truth_story);
    EXPECT_EQ(restored->event_type, snippet.event_type);
    EXPECT_TRUE(restored->entities == snippet.entities);
    EXPECT_TRUE(restored->keywords == snippet.keywords);
  });
}

TEST(SnapshotTest, AlignmentAfterLoadMatchesOriginal) {
  std::unique_ptr<StoryPivotEngine> original = BuildPopulatedEngine();
  auto loaded = LoadSnapshot(SaveSnapshot(*original));
  ASSERT_TRUE(loaded.ok());
  original->Align();
  loaded.value()->Align();
  EXPECT_EQ(original->alignment().stories.size(),
            loaded.value()->alignment().stories.size());
  eval::QualityScores a = eval::ScoreEngine(*original);
  eval::QualityScores b = eval::ScoreEngine(*loaded.value());
  EXPECT_DOUBLE_EQ(a.sa_pairwise.f1, b.sa_pairwise.f1);
  EXPECT_DOUBLE_EQ(a.si_pairwise.f1, b.si_pairwise.f1);
}

TEST(SnapshotTest, LoadedEngineAcceptsNewSnippets) {
  std::unique_ptr<StoryPivotEngine> original = BuildPopulatedEngine();
  auto loaded = LoadSnapshot(SaveSnapshot(*original));
  ASSERT_TRUE(loaded.ok());
  StoryPivotEngine& engine = *loaded.value();
  // Continue ingesting: ids must not collide, identification must work.
  Snippet snippet;
  snippet.source = 0;
  snippet.timestamp = MakeTimestamp(2014, 12, 24);
  snippet.entities = text::TermVector::FromEntries({{0, 1.0}});
  snippet.keywords = text::TermVector::FromEntries({{0, 1.0}});
  Result<SnippetId> id = engine.AddSnippet(std::move(snippet));
  ASSERT_TRUE(id.ok());
  EXPECT_NE(engine.partition(0)->StoryOf(id.value()), kInvalidStoryId);
}

TEST(SnapshotTest, FileRoundTrip) {
  std::unique_ptr<StoryPivotEngine> original = BuildPopulatedEngine();
  std::string path = ::testing::TempDir() + "/sp_snapshot_test.tsv";
  ASSERT_TRUE(SaveSnapshotToFile(*original, path).ok());
  auto loaded = LoadSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Fingerprint(*loaded.value()), Fingerprint(*original));
  std::remove(path.c_str());
}

TEST(SnapshotTest, RoundTripIsByteIdentical) {
  std::unique_ptr<StoryPivotEngine> original = BuildPopulatedEngine();
  std::string first = SaveSnapshot(*original);
  auto loaded = LoadSnapshot(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Save(Load(Save(e))) must be byte-identical, so snapshots are
  // canonical: equal states produce equal bytes, diffable and hashable.
  std::string second = SaveSnapshot(*loaded.value());
  EXPECT_EQ(first, second);
  auto reloaded = LoadSnapshot(second);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(SaveSnapshot(*reloaded.value()), second);
}

TEST(SnapshotTest, ByteIdenticalAfterRemovalsAndParallelBatchIngest) {
  datagen::CorpusConfig corpus_config;
  corpus_config.seed = 77;
  corpus_config.num_sources = 4;
  corpus_config.num_stories = 10;
  corpus_config.target_num_snippets = 400;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();
  EngineConfig config;
  config.num_threads = 4;  // Exercise the parallel batch-ingest path.
  auto engine = std::make_unique<StoryPivotEngine>(config);
  SP_CHECK_OK(engine->ImportVocabularies(*corpus.entity_vocabulary,
                                         *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
  engine->gazetteer()->AddEntity("acme corp");
  engine->gazetteer()->AddAlias(0, "the zeroth entity");
  std::vector<SnippetId> ids;
  for (size_t begin = 0; begin < corpus.snippets.size(); begin += 64) {
    std::vector<Snippet> batch;
    for (size_t i = begin;
         i < std::min(begin + 64, corpus.snippets.size()); ++i) {
      batch.push_back(corpus.snippets[i]);
      batch.back().id = kInvalidSnippetId;
    }
    Result<std::vector<SnippetId>> added =
        engine->AddSnippets(std::move(batch));
    SP_CHECK_OK(added.status());
    ids.insert(ids.end(), added.value().begin(), added.value().end());
  }
  // Removals that leave id gaps — including the HIGHEST id, which max+1
  // counter inference would hand out again.
  SP_CHECK_OK(engine->RemoveSnippet(ids[5]));
  SP_CHECK_OK(engine->RemoveSnippet(ids.back()));
  SP_CHECK_OK(engine->RemoveSource(3));

  std::string first = SaveSnapshot(*engine);
  auto loaded = LoadSnapshot(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveSnapshot(*loaded.value()), first);

  // Id-stream continuation: the restored engine assigns the SAME ids and
  // story as the original engine would, despite the gaps.
  Snippet fresh = corpus.snippets[0];
  fresh.id = kInvalidSnippetId;
  Snippet fresh_copy = fresh;
  Result<SnippetId> original_id = engine->AddSnippet(std::move(fresh));
  Result<SnippetId> restored_id =
      loaded.value()->AddSnippet(std::move(fresh_copy));
  ASSERT_TRUE(original_id.ok());
  ASSERT_TRUE(restored_id.ok());
  EXPECT_EQ(original_id.value(), restored_id.value());
  EXPECT_EQ(EngineStateFingerprint(*loaded.value()),
            EngineStateFingerprint(*engine));
}

TEST(SnapshotTest, RejectsGarbage) {
  EXPECT_FALSE(LoadSnapshot("").ok());
  EXPECT_FALSE(LoadSnapshot("not a snapshot\n").ok());
  EXPECT_FALSE(
      LoadSnapshot("#storypivot-snapshot\tv99\n").ok());  // Wrong version.
  // Valid header but broken snippet row.
  EXPECT_FALSE(
      LoadSnapshot("#storypivot-snapshot\tv1\nN\txx\n").ok());
  // Snippet referencing an unknown source.
  EXPECT_FALSE(LoadSnapshot("#storypivot-snapshot\tv1\n"
                            "N\t1\t9\t0\t0\t-1\tu\td\t\t\n")
                   .ok());
}

TEST(SnapshotTest, RejectsTermWeightsThatAreNotFinitePositiveNumbers) {
  // A valid snippet row under a valid source, then the same row with each
  // bad entity or keyword weight.
  const std::string head = "#storypivot-snapshot\tv2\nS\t0\ts\n";
  auto row = [](const std::string& entities, const std::string& keywords) {
    return "N\t1\t0\t0\t0\t-1\tu\tt\td\t" + entities + "\t" + keywords +
           "\n";
  };
  ASSERT_TRUE(LoadSnapshot(head + row("0:1", "3:2.5")).ok());
  for (const char* weight : {"inf", "nan", "-2", "0", "1e999", " 1"}) {
    SCOPED_TRACE(weight);
    for (const std::string& bad : {row(std::string("0:") + weight, "3:1"),
                                   row("0:1", std::string("3:") + weight)}) {
      Result<std::unique_ptr<StoryPivotEngine>> loaded =
          LoadSnapshot(head + bad);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      // The error names the snippet, so an operator can find the row.
      EXPECT_NE(loaded.status().message().find("snippet 1"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
}

TEST(SnapshotTest, AdoptAssignmentRejectsUnknownSource) {
  StoryPivotEngine engine;
  Snippet snippet;
  snippet.source = 42;
  Result<SnippetId> r = engine.AdoptAssignment(std::move(snippet), 0);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotTest, AdoptAssignmentBuildsStories) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  for (int i = 0; i < 3; ++i) {
    Snippet snippet;
    snippet.source = src;
    snippet.timestamp = i * 100;
    snippet.entities = text::TermVector::FromEntries(
        {{static_cast<text::TermId>(i), 1.0}});
    ASSERT_TRUE(engine.AdoptAssignment(std::move(snippet), 7).ok());
  }
  const StorySet* partition = engine.partition(src);
  const Story* story = partition->FindStory(7);
  ASSERT_NE(story, nullptr);
  EXPECT_EQ(story->size(), 3u);
  // Future automatic story ids stay clear of adopted ones.
  Snippet fresh;
  fresh.source = src;
  fresh.timestamp = 999999;
  fresh.entities = text::TermVector::FromEntries({{99, 1.0}});
  SnippetId id = engine.AddSnippet(std::move(fresh)).value();
  EXPECT_GT(partition->StoryOf(id), 7u);
}

}  // namespace
}  // namespace storypivot
