#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sketch/lsh_index.h"
#include "sketch/minhash.h"
#include "util/rng.h"

namespace storypivot {
namespace {

text::TermVector VectorOf(std::initializer_list<text::TermId> terms) {
  std::vector<text::TermVector::Entry> entries;
  for (text::TermId t : terms) entries.push_back({t, 1.0});
  return text::TermVector::FromEntries(std::move(entries));
}

// -------------------------------- MinHash ----------------------------------

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  text::TermVector e = VectorOf({1, 2, 3});
  text::TermVector k = VectorOf({10, 11});
  auto a = MinHashSignature::FromContent(e, k);
  auto b = MinHashSignature::FromContent(e, k);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  auto a = MinHashSignature::FromContent(VectorOf({1, 2, 3}),
                                         VectorOf({10, 11}), 128);
  auto b = MinHashSignature::FromContent(VectorOf({4, 5, 6}),
                                         VectorOf({20, 21}), 128);
  EXPECT_LT(a.EstimateJaccard(b), 0.1);
}

TEST(MinHashTest, EmptySignatureEstimatesZero) {
  MinHashSignature empty(64);
  auto a = MinHashSignature::FromContent(VectorOf({1}), VectorOf({}), 64);
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_FALSE(a.IsEmpty());
  EXPECT_DOUBLE_EQ(empty.EstimateJaccard(a), 0.0);
  EXPECT_DOUBLE_EQ(empty.EstimateJaccard(empty), 0.0);
}

TEST(MinHashTest, EntityAndKeywordDomainsDistinct) {
  // The same raw TermId in the entity vs keyword domain must not collide.
  auto a = MinHashSignature::FromContent(VectorOf({1}), VectorOf({}), 128);
  auto b = MinHashSignature::FromContent(VectorOf({}), VectorOf({1}), 128);
  EXPECT_LT(a.EstimateJaccard(b), 0.1);
  EXPECT_NE(TagEntityTerm(1), TagKeywordTerm(1));
}

TEST(MinHashTest, MergeEqualsUnionSignature) {
  text::TermVector ea = VectorOf({1, 2});
  text::TermVector eb = VectorOf({3, 4});
  auto a = MinHashSignature::FromContent(ea, VectorOf({}), 64);
  auto b = MinHashSignature::FromContent(eb, VectorOf({}), 64);
  a.Merge(b);
  auto expected =
      MinHashSignature::FromContent(VectorOf({1, 2, 3, 4}), VectorOf({}), 64);
  EXPECT_EQ(a, expected);
}

// Property: the MinHash estimate converges to true Jaccard within the
// ~1/sqrt(k) bound, across random set pairs.
class MinHashAccuracy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinHashAccuracy, EstimateWithinBound) {
  Pcg32 rng(GetParam());
  const size_t kHashes = 256;  // Error ~ 1/16.
  for (int round = 0; round < 10; ++round) {
    // Build two random sets with controlled overlap.
    std::set<text::TermId> sa, sb;
    size_t shared = 5 + rng.NextBounded(30);
    size_t only_a = rng.NextBounded(30);
    size_t only_b = rng.NextBounded(30);
    text::TermId next = 0;
    for (size_t i = 0; i < shared; ++i) {
      sa.insert(next);
      sb.insert(next);
      ++next;
    }
    for (size_t i = 0; i < only_a; ++i) sa.insert(next++);
    for (size_t i = 0; i < only_b; ++i) sb.insert(next++);

    double true_jaccard =
        static_cast<double>(shared) /
        static_cast<double>(shared + only_a + only_b);

    auto make = [&](const std::set<text::TermId>& s) {
      MinHashSignature sig(kHashes);
      for (text::TermId t : s) sig.AddElement(TagEntityTerm(t));
      return sig;
    };
    double estimate = make(sa).EstimateJaccard(make(sb));
    EXPECT_NEAR(estimate, true_jaccard, 4.0 / std::sqrt(kHashes))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinHashAccuracy,
                         ::testing::Values(101u, 202u, 303u));

// -------------------------------- LshIndex ---------------------------------

TEST(LshIndexTest, ExactDuplicateAlwaysFound) {
  LshIndex index(16, 4);
  auto sig = MinHashSignature::FromContent(VectorOf({1, 2, 3}),
                                           VectorOf({9}), 64);
  index.Insert(42, sig);
  auto hits = index.Query(sig);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
}

TEST(LshIndexTest, HighSimilarityPairsCollide) {
  // Sets with Jaccard ~0.9 should collide with overwhelming probability
  // under 16 bands x 4 rows.
  Pcg32 rng(5);
  LshIndex index(16, 4);
  std::vector<text::TermId> base;
  for (text::TermId t = 0; t < 40; ++t) base.push_back(t);
  MinHashSignature a(64);
  for (text::TermId t : base) a.AddElement(TagEntityTerm(t));
  MinHashSignature b(64);
  for (size_t i = 0; i < base.size(); ++i) {
    // Replace 2 of 40 elements -> Jaccard ~ 38/42 ~ 0.90.
    text::TermId t = (i < 2) ? 1000 + static_cast<text::TermId>(i) : base[i];
    b.AddElement(TagEntityTerm(t));
  }
  index.Insert(1, a);
  auto hits = index.Query(b);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(LshIndexTest, LowSimilarityPairsRarelyCollide) {
  // Many distinct random items; a fresh probe should match few of them.
  Pcg32 rng(6);
  LshIndex index(16, 4);
  for (uint64_t i = 0; i < 200; ++i) {
    MinHashSignature sig(64);
    for (int k = 0; k < 10; ++k) {
      sig.AddElement(TagEntityTerm(rng.NextBounded(100000)));
    }
    index.Insert(i, sig);
  }
  MinHashSignature probe(64);
  for (int k = 0; k < 10; ++k) {
    probe.AddElement(TagEntityTerm(200000 + rng.NextBounded(1000)));
  }
  EXPECT_LT(index.Query(probe).size(), 5u);
}

// Property: LSH recall for similar pairs across seeds.
class LshRecall : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LshRecall, SimilarItemsRetrieved) {
  Pcg32 rng(GetParam());
  LshIndex index(16, 4);
  const int kItems = 50;
  std::vector<MinHashSignature> sigs;
  for (int i = 0; i < kItems; ++i) {
    MinHashSignature sig(64);
    // Each item: 20 shared elements + 2 private ones => pairwise J ~ 0.83.
    for (text::TermId t = 0; t < 20; ++t) sig.AddElement(TagEntityTerm(t));
    sig.AddElement(TagEntityTerm(1000 + 2 * i));
    sig.AddElement(TagEntityTerm(1001 + 2 * i));
    sigs.push_back(sig);
    index.Insert(static_cast<uint64_t>(i), sigs.back());
  }
  // Every item should retrieve most of its near-duplicates.
  size_t total_hits = 0;
  for (int i = 0; i < kItems; ++i) {
    total_hits += index.Query(sigs[i]).size();
  }
  EXPECT_GT(total_hits, static_cast<size_t>(kItems) * kItems * 8 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LshRecall, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace storypivot
