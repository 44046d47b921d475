#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>

#include "core/snapshot.h"
#include "datagen/corpus.h"
#include "eval/experiment.h"
#include "persist/durable_engine.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

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

// --- Exact weights ----------------------------------------------------------

/// A weight drawn log-uniformly from (1e-12, DBL_MAX] (TermVector drops
/// weights of 1e-12 or less): exp() of a uniform exponent gives random
/// mantissa bits, so below 2^53 the draws are non-integers and above it
/// they carry up to 17 significant digits, far past %g's 6.
double DrawWeight(Pcg32& rng) {
  const double lo = std::log(1e-12);
  const double hi = std::log(DBL_MAX);
  for (;;) {
    const double w = std::exp(lo + (hi - lo) * rng.NextDouble());
    // Below 2^53 an integer draw is redrawn; above it every double is one.
    if (w > 1e-12 && std::isfinite(w) &&
        (w >= 0x1p53 || w != std::floor(w))) {
      return w;
    }
  }
}

text::TermVector DrawTerms(Pcg32& rng, text::TermId vocabulary) {
  std::vector<text::TermVector::Entry> entries;
  const uint32_t n = 1 + rng.NextBounded(4);
  for (uint32_t i = 0; i < n; ++i) {
    entries.push_back({rng.NextBounded(vocabulary), DrawWeight(rng)});
  }
  return text::TermVector::FromEntries(std::move(entries));
}

::testing::AssertionResult BitEqual(const text::TermVector& a,
                                    const text::TermVector& b) {
  if (a.entries().size() != b.entries().size()) {
    return ::testing::AssertionFailure() << "different term counts";
  }
  for (size_t i = 0; i < a.entries().size(); ++i) {
    const auto& [term_a, weight_a] = a.entries()[i];
    const auto& [term_b, weight_b] = b.entries()[i];
    if (term_a != term_b || std::bit_cast<uint64_t>(weight_a) !=
                                std::bit_cast<uint64_t>(weight_b)) {
      return ::testing::AssertionFailure()
             << "term " << term_a << " weight " << std::hexfloat << weight_a
             << " came back as term " << term_b << " weight " << weight_b;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SnapshotTest, EveryWeightSurvivesBitForBit) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE(seed);
    Pcg32 rng(seed);
    StoryPivotEngine engine;
    const SourceId source = engine.RegisterSource("s");
    for (int t = 0; t < 16; ++t) {
      engine.entity_vocabulary()->Intern(StrFormat("e%d", t));
      engine.keyword_vocabulary()->Intern(StrFormat("k%d", t));
    }
    // Adopted, not identified: the property is about the text format.
    for (int i = 0; i < 200; ++i) {
      Snippet snippet;
      snippet.source = source;
      snippet.timestamp = MakeTimestamp(2014, 6, 1) + i * 60;
      snippet.entities = DrawTerms(rng, 16);
      snippet.keywords = DrawTerms(rng, 16);
      ASSERT_TRUE(
          engine.AdoptAssignment(std::move(snippet), rng.NextBounded(20))
              .ok());
    }
    const std::string saved = SaveSnapshot(engine);
    Result<std::unique_ptr<StoryPivotEngine>> loaded = LoadSnapshot(saved);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    size_t compared = 0;
    engine.store().ForEach([&](const Snippet& snippet) {
      const Snippet* restored = loaded.value()->store().Find(snippet.id);
      ASSERT_NE(restored, nullptr);
      EXPECT_TRUE(BitEqual(restored->entities, snippet.entities));
      EXPECT_TRUE(BitEqual(restored->keywords, snippet.keywords));
      ++compared;
    });
    EXPECT_EQ(compared, 200u);
    EXPECT_EQ(SaveSnapshot(*loaded.value()), saved);
  }
}

/// Returns an empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
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

TEST(SnapshotTest, CrashRecoveryFromACheckpointKeepsEveryWeight) {
  // The WAL logs exact bits; recovery from a checkpoint plus a tail must
  // reach exactly the state the live engine acknowledged.
  for (uint64_t seed : {11ull, 12ull}) {
    SCOPED_TRACE(seed);
    Pcg32 rng(seed);
    const std::string dir = FreshDir(StrFormat(
        "sp_snapshot_weights_%llu", static_cast<unsigned long long>(seed)));
    std::vector<Snippet> acknowledged;
    {
      Result<std::unique_ptr<persist::DurableEngine>> opened =
          persist::DurableEngine::Open(dir);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      persist::DurableEngine& durable = *opened.value();
      for (int s = 0; s < 2; ++s) {
        ASSERT_TRUE(durable.RegisterSource(StrFormat("s%d", s)).ok());
      }
      for (int batch = 0; batch < 4; ++batch) {
        std::vector<Snippet> snippets;
        for (int i = 0; i < 25; ++i) {
          Snippet snippet;
          snippet.source = static_cast<SourceId>(i % 2);
          snippet.timestamp = MakeTimestamp(2014, 6, 1) + (batch * 25 + i) * 60;
          snippet.entities = DrawTerms(rng, 16);
          snippet.keywords = DrawTerms(rng, 16);
          snippets.push_back(std::move(snippet));
        }
        ASSERT_TRUE(durable.AddSnippets(std::move(snippets)).ok());
        // Two batches in the checkpoint, two in the WAL tail.
        if (batch == 1) {
          ASSERT_TRUE(durable.Checkpoint().ok());
        }
      }
      durable.engine().store().ForEach(
          [&](const Snippet& snippet) { acknowledged.push_back(snippet); });
    }  // Dropped without a final checkpoint: the tail stays in the WAL.
    Result<std::unique_ptr<persist::DurableEngine>> recovered =
        persist::DurableEngine::Open(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const StoryPivotEngine& engine = recovered.value()->engine();
    EXPECT_EQ(recovered.value()->ops_since_checkpoint(), 2u);
    ASSERT_EQ(engine.store().size(), acknowledged.size());
    for (const Snippet& snippet : acknowledged) {
      const Snippet* restored = engine.store().Find(snippet.id);
      ASSERT_NE(restored, nullptr);
      EXPECT_TRUE(BitEqual(restored->entities, snippet.entities));
      EXPECT_TRUE(BitEqual(restored->keywords, snippet.keywords));
    }
    ASSERT_TRUE(recovered.value()->Close().ok());
  }
}

TEST(SnapshotTest, IntegerWeightsKeepTheirPercentGText) {
  // Integer weights below 1e5 print as %g printed them, so checkpoints of
  // integer-weighted corpora keep their bytes (and their size).
  StoryPivotEngine engine;
  const SourceId source = engine.RegisterSource("s");
  engine.keyword_vocabulary()->Intern("k");
  Snippet snippet;
  snippet.source = source;
  snippet.keywords = text::TermVector::FromEntries(
      {{0, 1.0}, {1, 2.0}, {2, 99999.0}, {3, 0.5}});
  ASSERT_TRUE(engine.AdoptAssignment(std::move(snippet), 0).ok());
  EXPECT_NE(SaveSnapshot(engine).find("\t0:1;1:2;2:99999;3:0.5\n"),
            std::string::npos)
      << SaveSnapshot(engine);
}

TEST(SnapshotTest, PercentGWeightTextStillParses) {
  // What earlier writers printed: 6 significant digits, with exponents.
  const std::string head = "#storypivot-snapshot\tv2\nS\t0\ts\n";
  Result<std::unique_ptr<StoryPivotEngine>> loaded = LoadSnapshot(
      head + "N\t1\t0\t0\t0\t-1\tu\tt\td\t0:1e+06;1:2.5e-07"
             "\t3:0.123457;4:1e+300;5:100000\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Snippet* snippet = loaded.value()->store().Find(1);
  ASSERT_NE(snippet, nullptr);
  EXPECT_EQ(snippet->entities.entries(),
            (std::vector<text::TermVector::Entry>{{0, 1e6}, {1, 2.5e-7}}));
  EXPECT_EQ(snippet->keywords.entries(),
            (std::vector<text::TermVector::Entry>{
                {3, 0.123457}, {4, 1e300}, {5, 1e5}}));
}

// --- Files written by earlier versions ------------------------------------
//
// testdata/checkpoint_v2.sp was written by the %g writer (commit d40d3eb)
// from an engine with gazetteer aliases, a removed snippet and a removed
// source (gaps the C row must carry), a quoted source name and
// description, integer weights, 0.5, 0.123457 (%g's text of 0.1234567)
// and 1e+06. checkpoint_v1.sp is the same file as v1 wrote it: no G or C
// rows. Both load to the fingerprint recorded from that commit's loader.

constexpr uint64_t kGoldenFingerprint = 0x0c84d47e61a1c732ULL;

std::string ReadTestdata(const std::string& name) {
  Result<std::string> contents =
      ReadFileToString(std::string(SP_TESTDATA_DIR) + "/" + name);
  SP_CHECK_OK(contents.status());
  return std::move(contents).value();
}

TEST(SnapshotTest, GoldenV2LoadsAndResavesByteIdentically) {
  const std::string golden = ReadTestdata("checkpoint_v2.sp");
  Result<std::unique_ptr<StoryPivotEngine>> loaded = LoadSnapshot(golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EngineStateFingerprint(*loaded.value()), kGoldenFingerprint);
  EXPECT_EQ(SaveSnapshot(*loaded.value()), golden);
  const StoryPivotEngine& engine = *loaded.value();
  EXPECT_EQ(engine.sources().size(), 2u);
  EXPECT_EQ(engine.store().size(), 5u);
  EXPECT_EQ(engine.gazetteer().aliases().size(), 4u);
  const StoryPivotEngine::IdCounters counters = engine.id_counters();
  EXPECT_EQ(counters.next_source, 3u);
  EXPECT_EQ(counters.next_snippet, 7u);
  EXPECT_EQ(counters.next_story, 9u);
}

TEST(SnapshotTest, GoldenV1Loads) {
  Result<std::unique_ptr<StoryPivotEngine>> loaded =
      LoadSnapshot(ReadTestdata("checkpoint_v1.sp"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EngineStateFingerprint(*loaded.value()), kGoldenFingerprint);
  const StoryPivotEngine& engine = *loaded.value();
  EXPECT_TRUE(engine.gazetteer().aliases().empty());
}

TEST(SnapshotTest, CrLfSnapshotLoads) {
  std::string golden = ReadTestdata("checkpoint_v2.sp");
  std::string crlf;
  for (char c : golden) {
    if (c == '\n') crlf.push_back('\r');
    crlf.push_back(c);
  }
  Result<std::unique_ptr<StoryPivotEngine>> loaded = LoadSnapshot(crlf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveSnapshot(*loaded.value()), golden);
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
