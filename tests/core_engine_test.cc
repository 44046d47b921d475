#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/engine.h"
#include "core/query.h"
#include "datagen/corpus.h"
#include "model/time.h"
#include "util/logging.h"

namespace storypivot {
namespace {

Snippet MakeSnippet(SourceId source, Timestamp ts,
                    std::vector<std::pair<text::TermId, double>> entities,
                    std::vector<std::pair<text::TermId, double>> keywords,
                    const std::string& url = "", int64_t truth = -1) {
  Snippet s;
  s.source = source;
  s.timestamp = ts;
  s.entities = text::TermVector::FromEntries(std::move(entities));
  s.keywords = text::TermVector::FromEntries(std::move(keywords));
  s.document_url = url;
  s.truth_story = truth;
  return s;
}

TEST(EngineTest, RegisterAndNameSources) {
  StoryPivotEngine engine;
  SourceId nyt = engine.RegisterSource("New York Times");
  SourceId wsj = engine.RegisterSource("Wall Street Journal");
  EXPECT_NE(nyt, wsj);
  EXPECT_EQ(engine.SourceName(nyt), "New York Times");
  EXPECT_EQ(engine.SourceName(999), "<unknown>");
  EXPECT_EQ(engine.sources().size(), 2u);
}

TEST(EngineTest, AddSnippetToUnknownSourceFails) {
  StoryPivotEngine engine;
  Result<SnippetId> r = engine.AddSnippet(MakeSnippet(7, 0, {}, {}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, WeightsMustBeFinitePositiveNumbers) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  auto with_entity_weight = [&](double weight) {
    // FromEntries keeps non-finite values and negative ones.
    return MakeSnippet(src, 0, {{0, 1.0}, {1, weight}}, {{5, 1.0}});
  };
  auto with_keyword_weight = [&](double weight) {
    return MakeSnippet(src, 0, {{0, 1.0}}, {{5, weight}});
  };
  for (double weight : {nan, inf, -inf, -1.0, -1e-6}) {
    SCOPED_TRACE(weight);
    for (const Snippet& bad :
         {with_entity_weight(weight), with_keyword_weight(weight)}) {
      Result<SnippetId> added = engine.AddSnippet(bad);
      ASSERT_FALSE(added.ok());
      EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(std::string(added.status().message()).find("finite"),
                std::string::npos);
      // A batch holding one such snippet is refused whole.
      Result<std::vector<SnippetId>> batch = engine.AddSnippets(
          {MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}}), bad});
      ASSERT_FALSE(batch.ok());
      EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
      Result<SnippetId> adopted = engine.AdoptAssignment(bad, 3);
      ASSERT_FALSE(adopted.ok());
      EXPECT_EQ(adopted.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // Nothing changed.
  EXPECT_EQ(engine.store().size(), 0u);
  EXPECT_EQ(engine.TotalStories(), 0u);
  EXPECT_EQ(engine.stats().snippets_ingested, 0u);
  // Tiny and huge finite positive weights are fine.
  ASSERT_TRUE(engine.AddSnippet(with_keyword_weight(1e300)).ok());
  ASSERT_TRUE(engine.AddSnippet(with_entity_weight(1e-9)).ok());
  EXPECT_EQ(engine.store().size(), 2u);
}

TEST(EngineTest, SnippetsClusterWithinSource) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SnippetId a = engine
                    .AddSnippet(MakeSnippet(src, 0, {{0, 1.0}, {1, 1.0}},
                                            {{5, 1.0}}))
                    .value();
  SnippetId b = engine
                    .AddSnippet(MakeSnippet(src, kSecondsPerDay,
                                            {{0, 1.0}, {1, 1.0}}, {{5, 1.0}}))
                    .value();
  SnippetId c = engine
                    .AddSnippet(MakeSnippet(src, kSecondsPerDay,
                                            {{8, 1.0}, {9, 1.0}}, {{7, 1.0}}))
                    .value();
  const StorySet* partition = engine.partition(src);
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(partition->StoryOf(a), partition->StoryOf(b));
  EXPECT_NE(partition->StoryOf(a), partition->StoryOf(c));
  EXPECT_EQ(engine.TotalStories(), 2u);
  EXPECT_EQ(engine.stats().snippets_ingested, 3u);
}

TEST(EngineTest, AddDocumentExtractsSnippetsPerParagraph) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("NYT");
  engine.gazetteer()->AddEntity("Ukraine");
  Document doc;
  doc.source = src;
  doc.url = "http://x/doc1";
  doc.title = "Plane crash in Ukraine";
  doc.paragraphs = {"A plane crashed over Ukraine.",
                    "The crash investigation started."};
  doc.timestamp = MakeTimestamp(2014, 7, 17);
  Result<std::vector<SnippetId>> ids = engine.AddDocument(doc);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 2u);
  const Snippet* first = engine.store().Find(ids.value()[0]);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->description, doc.title);
  EXPECT_EQ(first->document_url, doc.url);
  // The entity was recognised via the gazetteer.
  text::TermId ukraine = engine.entity_vocabulary()->Lookup("Ukraine");
  ASSERT_NE(ukraine, text::kInvalidTermId);
  EXPECT_GT(first->entities.ValueOf(ukraine), 0.0);
}

TEST(EngineTest, RemoveDocumentRemovesItsSnippets) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}}, "doc1")));
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 10, {{0, 1.0}}, {{5, 1.0}}, "doc1")));
  SnippetId keep =
      engine.AddSnippet(MakeSnippet(src, 20, {{0, 1.0}}, {{5, 1.0}}, "doc2"))
          .value();
  EXPECT_EQ(engine.store().size(), 3u);
  ASSERT_TRUE(engine.RemoveDocument("doc1").ok());
  EXPECT_EQ(engine.store().size(), 1u);
  EXPECT_NE(engine.store().Find(keep), nullptr);
  EXPECT_EQ(engine.RemoveDocument("doc1").code(), StatusCode::kNotFound);
  // Document frequency was rolled back too.
  EXPECT_EQ(engine.document_frequency().num_documents(), 1);
}

TEST(EngineTest, RemoveSnippetSplitsBrokenStory) {
  // Chain a-b-c where only b connects a and c (content bridge).
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SnippetId a =
      engine
          .AddSnippet(MakeSnippet(src, 0, {{0, 1.0}, {1, 1.0}},
                                  {{5, 1.0}, {6, 1.0}}))
          .value();
  SnippetId b =
      engine
          .AddSnippet(MakeSnippet(
              src, 20 * kSecondsPerDay,
              {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}},
              {{5, 1.0}, {6, 1.0}, {7, 1.0}, {8, 1.0}}))
          .value();
  SnippetId c =
      engine
          .AddSnippet(MakeSnippet(src, 40 * kSecondsPerDay,
                                  {{2, 1.0}, {3, 1.0}}, {{7, 1.0}, {8, 1.0}}))
          .value();
  const StorySet* partition = engine.partition(src);
  // Precondition: all three in one story via the bridge (b is within the
  // default 7d window of neither a nor c — craft accordingly).
  if (partition->StoryOf(a) == partition->StoryOf(c)) {
    ASSERT_TRUE(engine.RemoveSnippet(b).ok());
    EXPECT_NE(partition->StoryOf(a), partition->StoryOf(c))
        << "removing the bridge must split the story";
  } else {
    // With the temporal window the three never merged; removal is benign.
    ASSERT_TRUE(engine.RemoveSnippet(b).ok());
  }
  EXPECT_EQ(engine.store().Find(b), nullptr);
}

TEST(EngineTest, RemoveSourceDropsEverything) {
  StoryPivotEngine engine;
  SourceId a = engine.RegisterSource("a");
  SourceId b = engine.RegisterSource("b");
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(a, 0, {{0, 1.0}}, {{5, 1.0}})));
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(b, 0, {{0, 1.0}}, {{5, 1.0}})));
  ASSERT_TRUE(engine.RemoveSource(a).ok());
  EXPECT_EQ(engine.partition(a), nullptr);
  EXPECT_EQ(engine.store().size(), 1u);
  EXPECT_EQ(engine.sources().size(), 1u);
  EXPECT_EQ(engine.RemoveSource(a).code(), StatusCode::kNotFound);
  // Alignment still works with the remaining source.
  engine.Align();
  EXPECT_EQ(engine.alignment().stories.size(), 1u);
}

TEST(EngineTest, RemoveSourceLeavesNoTraceInAlignOrRefine) {
  // After RemoveSource, neither the next Align() nor a Refine() may name a
  // story, snippet or counterpart of the removed source.
  StoryPivotEngine engine;
  SourceId a = engine.RegisterSource("a");
  SourceId b = engine.RegisterSource("b");
  SourceId c = engine.RegisterSource("c");
  for (Timestamp ts : {0, 10, 20}) {
    for (SourceId source : {a, b, c}) {
      SP_CHECK_OK(
          engine.AddSnippet(MakeSnippet(source, ts, {{0, 1.0}}, {{5, 1.0}})));
    }
  }
  ASSERT_FALSE(engine.Align().counterpart.empty())
      << "test precondition: the sources must align";
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(a, 30, {{0, 1.0}}, {{5, 1.0}})));
  ASSERT_TRUE(engine.RemoveSource(a).ok());

  auto expect_no_member_of_a = [&](const AlignmentResult& aligned) {
    for (const IntegratedStory& story : aligned.stories) {
      for (const auto& [member_source, member_story] : story.members) {
        EXPECT_NE(member_source, a);
      }
    }
    auto expect_live = [&](SnippetId id) {
      const Snippet* snippet = engine.store().Find(id);
      ASSERT_NE(snippet, nullptr) << "snippet " << id;
      EXPECT_NE(snippet->source, a) << "snippet " << id;
    };
    for (const auto& [sid, index] : aligned.integrated_of) expect_live(sid);
    for (const auto& [sid, role] : aligned.roles) expect_live(sid);
    for (const auto& [sid, other] : aligned.counterpart) {
      expect_live(sid);
      expect_live(other);
    }
    EXPECT_EQ(aligned.roles.size(), engine.store().size());
  };
  expect_no_member_of_a(engine.Align());
  engine.Refine();
  expect_no_member_of_a(engine.alignment());
}

TEST(EngineTest, AddDocumentIsAllOrNothing) {
  // A document that cannot be ingested must leave zero trace: no
  // snippets, no document-frequency rows, no counted document.
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}})));
  const int64_t df_before = engine.document_frequency().num_documents();
  Document doc;
  doc.source = src + 99;  // Unregistered.
  doc.url = "http://x/bad";
  doc.title = "t";
  doc.paragraphs = {"one", "two"};
  Result<std::vector<SnippetId>> ids = engine.AddDocument(doc);
  EXPECT_FALSE(ids.ok());
  EXPECT_EQ(engine.store().size(), 1u);
  EXPECT_EQ(engine.document_frequency().num_documents(), df_before);
  EXPECT_EQ(engine.stats().documents_ingested, 0u);
  EXPECT_TRUE(engine.store().FindByDocument("http://x/bad").empty());
}

TEST(EngineTest, AlignmentStalenessTracking) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}})));
  EXPECT_FALSE(engine.has_alignment());
  engine.Align();
  EXPECT_TRUE(engine.has_alignment());
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 10, {{9, 1.0}}, {{8, 1.0}})));
  EXPECT_FALSE(engine.has_alignment()) << "mutation invalidates alignment";
  engine.Align();
  EXPECT_TRUE(engine.has_alignment());
}

TEST(EngineTest, CrossSourceAlignmentEndToEnd) {
  StoryPivotEngine engine;
  SourceId nyt = engine.RegisterSource("NYT");
  SourceId wsj = engine.RegisterSource("WSJ");
  // Both sources report the same story.
  for (int d = 0; d < 3; ++d) {
    SP_CHECK_OK(engine
        .AddSnippet(MakeSnippet(nyt, d * kSecondsPerDay,
                                {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {6, 1.0}})));
    SP_CHECK_OK(engine
        .AddSnippet(MakeSnippet(wsj, d * kSecondsPerDay + kSecondsPerHour,
                                {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {6, 1.0}})));
  }
  const AlignmentResult& alignment = engine.Align();
  ASSERT_EQ(alignment.stories.size(), 1u);
  EXPECT_EQ(alignment.stories[0].merged.sources().size(), 2u);
  // All snippets have cross-source counterparts -> aligning.
  for (const auto& [sid, role] : alignment.roles) {
    EXPECT_EQ(role, SnippetRole::kAligning);
  }
}

TEST(EngineTest, RefineReturnsStatsAndKeepsAlignmentFresh) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(src, 0, {{0, 1.0}}, {{5, 1.0}})));
  RefinementStats stats = engine.Refine();
  EXPECT_GE(stats.snippets_moved, 0);
  EXPECT_TRUE(engine.has_alignment());
  EXPECT_EQ(engine.stats().refinements_run, 1u);
}

TEST(EngineTest, ImportVocabulariesPreservesIds) {
  text::Vocabulary entities, keywords;
  entities.Intern("Ukraine");
  entities.Intern("Russia");
  keywords.Intern("crash");
  StoryPivotEngine engine;
  ASSERT_TRUE(engine.ImportVocabularies(entities, keywords).ok());
  EXPECT_EQ(engine.entity_vocabulary()->Lookup("Ukraine"), 0u);
  EXPECT_EQ(engine.entity_vocabulary()->Lookup("Russia"), 1u);
  EXPECT_EQ(engine.keyword_vocabulary()->Lookup("crash"), 0u);
  // Importing again is idempotent.
  EXPECT_TRUE(engine.ImportVocabularies(entities, keywords).ok());
}

TEST(EngineTest, ImportVocabulariesDetectsConflicts) {
  text::Vocabulary entities, keywords;
  entities.Intern("Ukraine");
  StoryPivotEngine engine;
  engine.entity_vocabulary()->Intern("Russia");  // Now id 0 is taken.
  Status s = engine.ImportVocabularies(entities, keywords);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, OutOfOrderArrivalsJoinTheRightStory) {
  StoryPivotEngine engine;
  SourceId src = engine.RegisterSource("s");
  // Arrive: day 0, day 4, then a *late* report about day 2.
  SnippetId a = engine
                    .AddSnippet(MakeSnippet(src, 0, {{0, 1.0}, {1, 1.0}},
                                            {{5, 1.0}}))
                    .value();
  SnippetId b = engine
                    .AddSnippet(MakeSnippet(src, 4 * kSecondsPerDay,
                                            {{0, 1.0}, {1, 1.0}}, {{5, 1.0}}))
                    .value();
  SnippetId late = engine
                       .AddSnippet(MakeSnippet(src, 2 * kSecondsPerDay,
                                               {{0, 1.0}, {1, 1.0}},
                                               {{5, 1.0}}))
                       .value();
  const StorySet* partition = engine.partition(src);
  EXPECT_EQ(partition->StoryOf(late), partition->StoryOf(a));
  EXPECT_EQ(partition->StoryOf(late), partition->StoryOf(b));
}

// ------------------------------ StoryQuery ---------------------------------

class QueryFixture : public ::testing::Test {
 protected:
  QueryFixture() {
    src_ = engine_.RegisterSource("NYT");
    ua_ = engine_.entity_vocabulary()->Intern("Ukraine");
    ru_ = engine_.entity_vocabulary()->Intern("Russia");
    crash_ = engine_.keyword_vocabulary()->Intern("crash");
    vote_ = engine_.keyword_vocabulary()->Intern("vote");
    SP_CHECK_OK(engine_
        .AddSnippet(MakeSnippet(src_, MakeTimestamp(2014, 7, 17),
                                {{ua_, 1.0}, {ru_, 1.0}}, {{crash_, 2.0}})));
    SP_CHECK_OK(engine_
        .AddSnippet(MakeSnippet(src_, MakeTimestamp(2014, 7, 18),
                                {{ua_, 1.0}, {ru_, 1.0}}, {{crash_, 1.0}})));
    SP_CHECK_OK(engine_
        .AddSnippet(MakeSnippet(src_, MakeTimestamp(2014, 9, 1),
                                {{ru_, 1.0}}, {{vote_, 1.0}})));
  }

  StoryPivotEngine engine_;
  SourceId src_ = 0;
  text::TermId ua_ = 0, ru_ = 0, crash_ = 0, vote_ = 0;
};

TEST_F(QueryFixture, SourceStoriesSortedBySize) {
  StoryQuery query(&engine_);
  auto stories = query.SourceStories(src_);
  ASSERT_EQ(stories.size(), 2u);
  EXPECT_EQ(stories[0].num_snippets, 2u);
  EXPECT_EQ(stories[1].num_snippets, 1u);
  EXPECT_EQ(stories[0].source_names[0], "NYT");
}

TEST_F(QueryFixture, OverviewCardContents) {
  StoryQuery query(&engine_);
  auto stories = query.SourceStories(src_);
  const StoryOverview& big = stories[0];
  ASSERT_FALSE(big.top_entities.empty());
  EXPECT_EQ(big.top_entities[0].first, "Ukraine");
  ASSERT_FALSE(big.top_keywords.empty());
  EXPECT_EQ(big.top_keywords[0].first, "crash");
  EXPECT_DOUBLE_EQ(big.top_keywords[0].second, 3.0);
  EXPECT_EQ(big.start_time, MakeTimestamp(2014, 7, 17));
  EXPECT_EQ(big.end_time, MakeTimestamp(2014, 7, 18));
}

TEST_F(QueryFixture, FindByEntity) {
  StoryQuery query(&engine_);
  EXPECT_EQ(query.FindByEntity("Ukraine").size(), 1u);
  EXPECT_EQ(query.FindByEntity("Russia").size(), 2u);
  EXPECT_TRUE(query.FindByEntity("Atlantis").empty());
}

TEST_F(QueryFixture, FindByKeyword) {
  StoryQuery query(&engine_);
  EXPECT_EQ(query.FindByKeyword("crash").size(), 1u);
  EXPECT_EQ(query.FindByKeyword("vote").size(), 1u);
  EXPECT_TRUE(query.FindByKeyword("unrelated").empty());
}

TEST_F(QueryFixture, IntegratedStoriesAfterAlign) {
  engine_.Align();
  StoryQuery query(&engine_);
  auto integrated = query.IntegratedStories();
  EXPECT_EQ(integrated.size(), 2u);
  EXPECT_TRUE(integrated[0].integrated);
}

TEST_F(QueryFixture, SnippetViewsAreTimeOrdered) {
  StoryQuery query(&engine_);
  auto stories = query.SourceStories(src_);
  const StorySet* partition = engine_.partition(src_);
  const Story* story = partition->FindStory(stories[0].id);
  ASSERT_NE(story, nullptr);
  auto views = query.Snippets(*story);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_LE(views[0].timestamp, views[1].timestamp);
  EXPECT_EQ(views[0].source_name, "NYT");
  ASSERT_FALSE(views[0].entities.empty());
}

// Determinism: the same ingest sequence yields identical clustering, for
// every identification mode.
class EngineDeterminism
    : public ::testing::TestWithParam<IdentificationMode> {};

TEST_P(EngineDeterminism, SameInputSameStories) {
  datagen::CorpusConfig corpus_config;
  corpus_config.seed = 5;
  corpus_config.num_sources = 3;
  corpus_config.num_stories = 8;
  corpus_config.target_num_snippets = 300;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();

  auto run = [&]() {
    EngineConfig config;
    config.mode = GetParam();
    auto engine = std::make_unique<StoryPivotEngine>(config);
    SP_CHECK(engine
                 ->ImportVocabularies(*corpus.entity_vocabulary,
                                      *corpus.keyword_vocabulary)
                 .ok());
    for (const SourceInfo& s : corpus.sources) {
      engine->RegisterSource(s.name);
    }
    for (const Snippet& snippet : corpus.snippets) {
      Snippet copy = snippet;
      SP_CHECK_OK(engine->AddSnippet(std::move(copy)));
    }
    // Canonical fingerprint: sorted (snippet id, story id) pairs per source.
    std::vector<std::pair<SnippetId, StoryId>> fingerprint;
    for (const StorySet* partition : engine->partitions()) {
      for (const auto& [ts, sid] : partition->snippet_times().entries()) {
        fingerprint.push_back({sid, partition->StoryOf(sid)});
      }
    }
    std::sort(fingerprint.begin(), fingerprint.end());
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineDeterminism,
    ::testing::Values(IdentificationMode::kTemporal,
                      IdentificationMode::kComplete));

}  // namespace
}  // namespace storypivot
