#include <gtest/gtest.h>

#include "core/similarity.h"
#include "model/snippet.h"
#include "model/story.h"

namespace storypivot {
namespace {

Snippet MakeSnippet(SnippetId id, Timestamp ts,
                    std::vector<std::pair<text::TermId, double>> entities,
                    std::vector<std::pair<text::TermId, double>> keywords) {
  Snippet s;
  s.id = id;
  s.source = 0;
  s.timestamp = ts;
  s.entities = text::TermVector::FromEntries(std::move(entities));
  s.keywords = text::TermVector::FromEntries(std::move(keywords));
  return s;
}

TEST(SimilarityModelTest, IdenticalSnippetsScoreMaximally) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}, {1, 1.0}}, {{5, 2.0}});
  double s = model.SnippetSimilarity(a, a);
  EXPECT_NEAR(s, kEntityWeight + kKeywordWeight, 1e-9);
}

TEST(SimilarityModelTest, DisjointSnippetsScoreZero) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}});
  Snippet b = MakeSnippet(2, 0, {{1, 1.0}}, {{6, 1.0}});
  EXPECT_DOUBLE_EQ(model.SnippetSimilarity(a, b), 0.0);
}

TEST(SimilarityModelTest, SymmetricAndBounded) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 2.0}, {1, 1.0}}, {{5, 1.0}, {6, 2.0}});
  Snippet b = MakeSnippet(2, 0, {{0, 1.0}, {2, 1.0}}, {{5, 2.0}, {9, 1.0}});
  double ab = model.SnippetSimilarity(a, b);
  double ba = model.SnippetSimilarity(b, a);
  EXPECT_DOUBLE_EQ(ab, ba);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST(SimilarityModelTest, ScoreWeighsEntityAndKeywordParts) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}});
  Snippet same_entity = MakeSnippet(2, 0, {{0, 1.0}}, {{6, 1.0}});
  Snippet same_keyword = MakeSnippet(3, 0, {{1, 1.0}}, {{5, 1.0}});
  EXPECT_DOUBLE_EQ(model.SnippetSimilarity(a, same_entity), kEntityWeight);
  EXPECT_DOUBLE_EQ(model.SnippetSimilarity(a, same_keyword), kKeywordWeight);
}

TEST(SimilarityModelTest, IdfDownweightsUbiquitousKeywords) {
  text::DocumentFrequency df;
  // Term 5 appears everywhere; term 6 is rare.
  for (int i = 0; i < 50; ++i) {
    df.AddDocument(text::TermVector::FromEntries({{5, 1.0}}));
  }
  df.AddDocument(text::TermVector::FromEntries({{6, 1.0}}));
  SimilarityModel model({}, &df);

  Snippet common_a = MakeSnippet(1, 0, {}, {{5, 1.0}, {7, 1.0}});
  Snippet common_b = MakeSnippet(2, 0, {}, {{5, 1.0}, {8, 1.0}});
  Snippet rare_a = MakeSnippet(3, 0, {}, {{6, 1.0}, {7, 1.0}});
  Snippet rare_b = MakeSnippet(4, 0, {}, {{6, 1.0}, {8, 1.0}});
  // Sharing a rare keyword is worth more than sharing a stopword-like one.
  EXPECT_GT(model.SnippetSimilarity(rare_a, rare_b),
            model.SnippetSimilarity(common_a, common_b));
}

TEST(SimilarityModelTest, SnippetStorySimilarityScalesWithStorySize) {
  SimilarityModel model({}, nullptr);
  Snippet probe = MakeSnippet(9, 0, {{0, 1.0}}, {{5, 1.0}});
  Story story(1);
  story.AddSnippet(MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}}));
  double one = model.SnippetStorySimilarity(probe, story);
  // Add more snippets with the same content: similarity must not collapse.
  story.AddSnippet(MakeSnippet(2, 10, {{0, 1.0}}, {{5, 1.0}}));
  story.AddSnippet(MakeSnippet(3, 20, {{0, 1.0}}, {{5, 1.0}}));
  double three = model.SnippetStorySimilarity(probe, story);
  EXPECT_NEAR(one, three, 0.05);
  EXPECT_GT(three, 0.5);
}

TEST(SimilarityModelTest, StorySimilarityIdentityAndDisjoint) {
  SimilarityModel model({}, nullptr);
  Story a(1), b(2);
  a.AddSnippet(MakeSnippet(1, 0, {{0, 1.0}}, {{5, 1.0}}));
  b.AddSnippet(MakeSnippet(2, 0, {{9, 1.0}}, {{8, 1.0}}));
  EXPECT_GT(model.StorySimilarity(a, a), 0.9);
  EXPECT_DOUBLE_EQ(model.StorySimilarity(a, b), 0.0);
}

TEST(SimilarityModelTest, CountsComparisons) {
  SimilarityModel model({}, nullptr);
  Snippet a = MakeSnippet(1, 0, {{0, 1.0}}, {});
  EXPECT_EQ(model.num_comparisons(), 0u);
  model.SnippetSimilarity(a, a);
  model.SnippetSimilarity(a, a);
  EXPECT_EQ(model.num_comparisons(), 2u);
  model.ResetCounters();
  EXPECT_EQ(model.num_comparisons(), 0u);
}

// ---------------------------- TemporalAffinity -----------------------------

TEST(TemporalAffinityTest, OverlappingIntervalsScoreOne) {
  EXPECT_DOUBLE_EQ(
      SimilarityModel::TemporalAffinity(0, 100, 50, 150, 10), 1.0);
  // Touching intervals also count as overlapping.
  EXPECT_DOUBLE_EQ(
      SimilarityModel::TemporalAffinity(0, 100, 100, 150, 10), 1.0);
}

TEST(TemporalAffinityTest, GapDecaysLinearly) {
  EXPECT_NEAR(SimilarityModel::TemporalAffinity(0, 100, 105, 150, 10), 0.5,
              1e-12);
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 100, 110, 150, 10),
                   0.0);
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 100, 200, 300, 10),
                   0.0);
}

TEST(TemporalAffinityTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 10, 14, 20, 8),
                   SimilarityModel::TemporalAffinity(14, 20, 0, 10, 8));
}

TEST(TemporalAffinityTest, ZeroToleranceIsHardCutoff) {
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 10, 11, 20, 0), 0.0);
  EXPECT_DOUBLE_EQ(SimilarityModel::TemporalAffinity(0, 10, 5, 20, 0), 1.0);
}

}  // namespace
}  // namespace storypivot
