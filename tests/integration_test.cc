#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/engine.h"
#include "core/query.h"
#include "datagen/corpus.h"
#include "datagen/mh17.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "util/logging.h"

namespace storypivot {
namespace {

// ------------------------- MH17 raw-text pipeline --------------------------
//
// The paper's running example, end to end through the full extraction
// pipeline: raw documents -> gazetteer/stemmer annotation -> story
// identification per source -> alignment across NYT and WSJ.

class Mh17Pipeline : public ::testing::Test {
 protected:
  Mh17Pipeline() : corpus_(datagen::MakeMh17Corpus()) {
    engine_ = std::make_unique<StoryPivotEngine>(NewsProseEngineConfig());
    for (const SourceInfo& source : corpus_.sources) {
      engine_->RegisterSource(source.name);
    }
    datagen::PopulateMh17Gazetteer(corpus_, engine_->gazetteer());
    for (const Document& doc : corpus_.documents) {
      SP_CHECK(engine_->AddDocument(doc).ok());
    }
    engine_->Align();
  }

  // Ground-truth label of each ingested snippet, with predicted integrated
  // story, for scoring.
  eval::PrfScores AlignedScores() const {
    std::vector<int64_t> truth, predicted;
    const AlignmentResult& alignment = engine_->alignment();
    engine_->store().ForEach([&](const Snippet& snippet) {
      truth.push_back(snippet.truth_story);
      predicted.push_back(
          static_cast<int64_t>(alignment.integrated_of.at(snippet.id)));
    });
    return eval::PairwiseF(truth, predicted);
  }

  datagen::Mh17Corpus corpus_;
  std::unique_ptr<StoryPivotEngine> engine_;
};

TEST_F(Mh17Pipeline, ExtractsSnippetsFromEveryParagraph) {
  size_t expected = 0;
  for (const Document& doc : corpus_.documents) {
    expected += doc.paragraphs.size();
  }
  EXPECT_EQ(engine_->store().size(), expected);
}

TEST_F(Mh17Pipeline, CrashStoryAlignsAcrossBothSources) {
  // Find the integrated story containing the first crash snippet.
  const AlignmentResult& alignment = engine_->alignment();
  std::vector<SnippetId> crash_snippets =
      engine_->store().FindByDocument("online.wsj.com/doc3.html");
  ASSERT_FALSE(crash_snippets.empty());
  size_t crash_cluster = alignment.integrated_of.at(crash_snippets[0]);
  const IntegratedStory& story = alignment.stories[crash_cluster];
  EXPECT_EQ(story.merged.sources().size(), 2u)
      << "both NYT and WSJ report the downing";
  // The NYT initial report must be in the same integrated story.
  std::vector<SnippetId> nyt_crash =
      engine_->store().FindByDocument("nytimes.com/doc1.html");
  ASSERT_FALSE(nyt_crash.empty());
  EXPECT_EQ(alignment.integrated_of.at(nyt_crash[0]), crash_cluster);
}

TEST_F(Mh17Pipeline, SingleSourceStoriesSurvive) {
  // The Google/Yelp antitrust story is WSJ-only and must still exist.
  const AlignmentResult& alignment = engine_->alignment();
  std::vector<SnippetId> yelp =
      engine_->store().FindByDocument("online.wsj.com/doc4.html");
  ASSERT_FALSE(yelp.empty());
  size_t yelp_cluster = alignment.integrated_of.at(yelp[0]);
  EXPECT_EQ(alignment.stories[yelp_cluster].merged.sources().size(), 1u);
  // And it must be a different story from the crash.
  std::vector<SnippetId> crash =
      engine_->store().FindByDocument("online.wsj.com/doc3.html");
  EXPECT_NE(alignment.integrated_of.at(crash[0]), yelp_cluster);
}

TEST_F(Mh17Pipeline, WarCrimesInquirySeparatedFromCrash) {
  // Both stories involve the UN and "investigation" vocabulary (the Fig. 5
  // v4 confusion); they must still end up in different integrated stories.
  const AlignmentResult& alignment = engine_->alignment();
  std::vector<SnippetId> inquiry =
      engine_->store().FindByDocument("nytimes.com/doc4.html");
  std::vector<SnippetId> crash =
      engine_->store().FindByDocument("nytimes.com/doc1.html");
  ASSERT_FALSE(inquiry.empty());
  ASSERT_FALSE(crash.empty());
  EXPECT_NE(alignment.integrated_of.at(inquiry[0]),
            alignment.integrated_of.at(crash[0]));
}

TEST_F(Mh17Pipeline, AlignedClustersArePure) {
  // The MH17 macro-story resolves into pure cross-source substories
  // (initial crash + investigation, Dutch report, sanctions, victims) —
  // the story-evolution phenomenon of §2.2. Purity must be perfect:
  // unrelated stories (war crimes, antitrust, doctors) never contaminate
  // a crash cluster.
  eval::PrfScores scores = AlignedScores();
  EXPECT_GT(scores.precision, 0.95) << "r=" << scores.recall;
  // Element-weighted recall over substories still lands a solid B-cubed.
  std::vector<int64_t> truth, predicted;
  const AlignmentResult& alignment = engine_->alignment();
  engine_->store().ForEach([&](const Snippet& snippet) {
    truth.push_back(snippet.truth_story);
    predicted.push_back(
        static_cast<int64_t>(alignment.integrated_of.at(snippet.id)));
  });
  EXPECT_GT(eval::BCubed(truth, predicted).f1, 0.7);
}

TEST_F(Mh17Pipeline, DutchReportAlignsAcrossSources) {
  // The September preliminary report was covered by both outlets on the
  // same day; those documents must land in one integrated story even
  // though they are ~8 weeks after the crash.
  const AlignmentResult& alignment = engine_->alignment();
  std::vector<SnippetId> nyt =
      engine_->store().FindByDocument("nytimes.com/doc7.html");
  std::vector<SnippetId> wsj =
      engine_->store().FindByDocument("online.wsj.com/doc8.html");
  ASSERT_FALSE(nyt.empty());
  ASSERT_FALSE(wsj.empty());
  EXPECT_EQ(alignment.integrated_of.at(nyt[0]),
            alignment.integrated_of.at(wsj[0]));
}

TEST_F(Mh17Pipeline, EntityQueryFindsTheCrashStory) {
  StoryQuery query(engine_.get());
  auto stories = query.FindByEntity("Malaysia Airlines");
  ASSERT_FALSE(stories.empty());
  bool crash_keyword = false;
  for (const auto& [term, count] : stories[0].top_keywords) {
    crash_keyword |= term == "crash" || term == "plane" || term == "jet";
  }
  EXPECT_TRUE(crash_keyword);
}

TEST_F(Mh17Pipeline, RemovingDocumentsUpdatesStories) {
  size_t before = engine_->store().size();
  ASSERT_TRUE(engine_->RemoveDocument("nytimes.com/doc7.html").ok());
  EXPECT_LT(engine_->store().size(), before);
  engine_->Align();  // Must not crash, and crash story persists.
  StoryQuery query(engine_.get());
  EXPECT_FALSE(query.FindByEntity("Malaysia Airlines").empty());
}

// ------------------- Temporal vs complete (Fig. 2 / Fig. 7) ----------------

struct ModeRow {
  eval::ExperimentRow temporal;
  eval::ExperimentRow complete;
};

ModeRow RunBothModes(int target_snippets, uint64_t seed) {
  ModeRow out;
  for (auto mode :
       {IdentificationMode::kTemporal, IdentificationMode::kComplete}) {
    eval::ExperimentConfig config;
    config.corpus.seed = seed;
    config.corpus.num_sources = 8;
    config.corpus.num_stories = 30;
    config.corpus.target_num_snippets = target_snippets;
    config.engine.mode = mode;
    config.run_refinement = false;
    eval::ExperimentRow row = eval::RunExperiment(config);
    if (mode == IdentificationMode::kTemporal) {
      out.temporal = row;
    } else {
      out.complete = row;
    }
  }
  return out;
}

TEST(ModeComparison, TemporalDoesFarFewerComparisons) {
  ModeRow rows = RunBothModes(2000, 7);
  EXPECT_LT(rows.temporal.comparisons * 2, rows.complete.comparisons)
      << "the sliding window must cut the candidate space drastically";
  EXPECT_LT(rows.temporal.ingest_time_ms, rows.complete.ingest_time_ms);
}

TEST(ModeComparison, CompleteOverfitsEvolvingStories) {
  // "complete mechanisms overfit stories as they tend to add related
  // snippets to the same story independently of the evolution of the
  // story in between" (§2.2) — visible as lower identification
  // *precision* for the complete baseline.
  ModeRow rows = RunBothModes(4000, 7);
  EXPECT_GT(rows.temporal.si_pairwise.precision,
            rows.complete.si_pairwise.precision);
  // And at this scale the temporal mode wins end-to-end too.
  EXPECT_GE(rows.temporal.sa_pairwise.f1, rows.complete.sa_pairwise.f1);
}

// ----------------------------- Dynamics (§2.4) -----------------------------

TEST(StreamingIntegration, OutOfOrderArrivalCostsLittleQuality) {
  datagen::CorpusConfig corpus_config;
  corpus_config.seed = 21;
  corpus_config.num_sources = 5;
  corpus_config.num_stories = 15;
  corpus_config.target_num_snippets = 1200;
  corpus_config.mean_report_delay_hours = 48;  // Strong reordering.
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();

  auto run = [&](bool sort_by_event_time) {
    StoryPivotEngine engine;
    SP_CHECK(engine
                 .ImportVocabularies(*corpus.entity_vocabulary,
                                     *corpus.keyword_vocabulary)
                 .ok());
    for (const SourceInfo& s : corpus.sources) engine.RegisterSource(s.name);
    std::vector<Snippet> order = corpus.snippets;
    if (sort_by_event_time) {
      std::sort(order.begin(), order.end(),
                [](const Snippet& a, const Snippet& b) {
                  return a.timestamp < b.timestamp;
                });
    }
    for (Snippet& s : order) {
      Snippet copy = s;
      copy.id = kInvalidSnippetId;
      SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
    }
    engine.Align();
    return eval::ScoreEngine(engine);
  };
  eval::QualityScores streamed = run(/*sort_by_event_time=*/false);
  eval::QualityScores batched = run(/*sort_by_event_time=*/true);
  EXPECT_GT(streamed.sa_pairwise.f1, batched.sa_pairwise.f1 - 0.1)
      << "out-of-order ingestion must not collapse quality";
}

TEST(RefinementIntegration, RefinementDoesNotHurtAlignmentQuality) {
  for (uint64_t seed : {41u, 42u}) {
    eval::ExperimentConfig base;
    base.corpus.seed = seed;
    base.corpus.num_sources = 6;
    base.corpus.num_stories = 20;
    base.corpus.target_num_snippets = 1500;
    base.run_refinement = false;
    eval::ExperimentConfig refined = base;
    refined.run_refinement = true;

    eval::ExperimentRow without = eval::RunExperiment(base);
    eval::ExperimentRow with = eval::RunExperiment(refined);
    EXPECT_GE(with.sa_pairwise.f1, without.sa_pairwise.f1 - 0.02)
        << "seed " << seed;
  }
}

// Sweep: end-to-end quality stays solid across corpus scales and seeds.
class ScaleSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ScaleSweep, QualityHoldsAcrossScales) {
  auto [n, seed] = GetParam();
  eval::ExperimentConfig config;
  config.corpus.seed = seed;
  config.corpus.num_sources = 6;
  config.corpus.num_stories = 20;
  config.corpus.target_num_snippets = n;
  eval::ExperimentRow row = eval::RunExperiment(config);
  // The smallest corpora are genuinely sparse (a story contributes only a
  // couple of snippets per source inside any window), so the bar scales.
  double bar = n <= 500 ? 0.55 : 0.7;
  EXPECT_GT(row.sa_pairwise.f1, bar)
      << "n=" << n << " seed=" << seed << " p="
      << row.sa_pairwise.precision << " r=" << row.sa_pairwise.recall;
  EXPECT_GT(row.sa_nmi, 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    Scales, ScaleSweep,
    ::testing::Combine(::testing::Values(500, 1500, 3000),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace storypivot
