#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/similarity.h"
#include "model/snippet.h"
#include "model/story.h"
#include "text/tfidf.h"
#include "util/rng.h"

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

// Property: both identification kernels are exactly +0.0 when their
// inputs share no entity id and no keyword id, for any finite positive
// weights — tiny, huge, and counts below 1/e, whose sublinear TF is
// negative. Identification skips those kernels on this guarantee.
class DisjointSupportsScoreZero : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DisjointSupportsScoreZero, BothKernelsReturnPositiveZero) {
  Pcg32 rng(GetParam());
  const double kWeights[] = {1e-300, 1e-20, 0.05, 0.2, 1.0 / std::exp(1.0),
                             0.5,    1.0,   3.0,  1e6, 1e300};
  // Any finite positive weight: a TermVector built entry by entry with
  // Merge keeps weights that FromEntries would drop as near-zero.
  auto random_vector = [&](std::vector<text::TermId> terms) {
    text::TermVector v;
    for (text::TermId term : terms) {
      const double weight =
          rng.NextBounded(3) == 0
              ? kWeights[rng.NextBounded(std::size(kWeights))]
              : 0.01 + 0.01 * rng.NextBounded(500);
      v.Merge(text::TermVector::FromEntries({{term, 1.0}}), weight);
    }
    return v;
  };
  text::DocumentFrequency df;
  for (int round = 0; round < 200; ++round) {
    // Deal a random term pool between the two sides of each domain; the
    // same raw id may sit on both sides in different domains.
    std::vector<text::TermId> ents[2], kws[2];
    for (text::TermId term = 0; term < 30; ++term) {
      const uint32_t side = rng.NextBounded(3);  // 2: unused.
      if (side < 2) ents[side].push_back(term);
      const uint32_t kw_side = rng.NextBounded(3);
      if (kw_side < 2) kws[kw_side].push_back(term);
    }
    Snippet a = MakeSnippet(1, 0, {}, {});
    a.entities = random_vector(ents[0]);
    a.keywords = random_vector(kws[0]);
    Snippet b = MakeSnippet(2, 0, {}, {});
    b.entities = random_vector(ents[1]);
    b.keywords = random_vector(kws[1]);
    Story story(1);
    story.AddSnippet(b);
    Snippet b2 = MakeSnippet(3, 10, {}, {});
    b2.entities = random_vector(ents[1]);
    b2.keywords = random_vector(kws[1]);
    story.AddSnippet(b2);
    df.AddDocument(a.keywords);
    df.AddDocument(b.keywords);
    const text::DocumentFrequency* const models[] = {&df, nullptr};
    for (const text::DocumentFrequency* frequencies : models) {
      SimilarityModel model({}, frequencies);
      const double pair = model.SnippetSimilarity(a, b);
      const double centroid = model.SnippetStorySimilarity(a, story);
      EXPECT_EQ(pair, 0.0) << "round " << round;
      EXPECT_FALSE(std::signbit(pair)) << "round " << round;
      EXPECT_EQ(centroid, 0.0) << "round " << round;
      EXPECT_FALSE(std::signbit(centroid)) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointSupportsScoreZero,
                         ::testing::Values(1u, 2u, 3u, 4u));

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
