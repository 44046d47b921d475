#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <vector>

#include "sketch/band_keys.h"
#include "util/hash.h"
#include "util/rng.h"

namespace storypivot {
namespace {

using BandKeys = std::array<uint64_t, kLshBands>;

text::TermVector VectorOf(std::initializer_list<text::TermId> terms) {
  std::vector<text::TermVector::Entry> entries;
  for (text::TermId t : terms) entries.push_back({t, 1.0});
  return text::TermVector::FromEntries(std::move(entries));
}

BandKeys KeysOf(const text::TermVector& entities,
                const text::TermVector& keywords) {
  BandKeys keys;
  StoryBandKeys(entities, keywords, keys);
  return keys;
}

bool ShareABand(const BandKeys& a, const BandKeys& b) {
  for (size_t band = 0; band < kLshBands; ++band) {
    if (a[band] == b[band]) return true;
  }
  return false;
}

// ------------------------------ The oracle ---------------------------------

/// The i-th derived hash function of the original MinHash signature, kept
/// here as the oracle of StoryBandKeys' seed table.
uint64_t HashWithSeed(uint64_t x, uint64_t seed) {
  return SplitMix64(x ^ SplitMix64(seed * 0xff51afd7ed558ccdULL + 1));
}

/// Band keys the long way: a 64-slot MinHash signature built one tagged
/// term at a time, then each band's 4 slots folded into SplitMix64(b + 1).
BandKeys OracleKeys(const text::TermVector& entities,
                    const text::TermVector& keywords) {
  std::vector<uint64_t> slots(kLshBands * kLshRowsPerBand,
                              std::numeric_limits<uint64_t>::max());
  auto add = [&](uint64_t element) {
    for (size_t i = 0; i < slots.size(); ++i) {
      slots[i] = std::min(slots[i], HashWithSeed(element, i));
    }
  };
  for (const auto& [term, weight] : entities.entries()) {
    if (weight > 0.0) add((uint64_t{1} << 40) | term);
  }
  for (const auto& [term, weight] : keywords.entries()) {
    if (weight > 0.0) add((uint64_t{2} << 40) | term);
  }
  BandKeys keys;
  for (size_t b = 0; b < kLshBands; ++b) {
    uint64_t key = SplitMix64(b + 1);
    for (size_t r = 0; r < kLshRowsPerBand; ++r) {
      key = HashCombine(key, slots[b * kLshRowsPerBand + r]);
    }
    keys[b] = key;
  }
  return keys;
}

TEST(StoryBandKeysTest, OneTermGivesSixteenDistinctKeys) {
  // With a single term every slot holds that term's hash under its own
  // seed, so the bands stay distinct only if the seeds look unrelated.
  for (const BandKeys& keys :
       {KeysOf(VectorOf({12345}), {}), KeysOf({}, VectorOf({12345}))}) {
    EXPECT_EQ(std::set<uint64_t>(keys.begin(), keys.end()).size(),
              kLshBands);
  }
}

// ----------------------------- Golden values -------------------------------

// Recorded from MinHashSignature::FromContent(entities, keywords, 64)
// followed by LshIndex::BandKeys, the code StoryBandKeys replaced: Align()
// buckets stories exactly as before.

TEST(StoryBandKeysTest, GoldenEmpty) {
  const BandKeys expected = {
      0xdd2beec679e9c7ceULL, 0xfee1be45941c6eabULL, 0xc69beebe81be4ccdULL,
      0xaad2d561b9a83d07ULL, 0x6f509ff56abf6c7cULL, 0x253d286d87316f21ULL,
      0xa083f2bc922560f6ULL, 0xf01ed1a75c3218c7ULL, 0x359182889dbdf298ULL,
      0x711b857a91617d92ULL, 0x54240681d5606918ULL, 0x582d573fc5668f4bULL,
      0x8bd86263d1348cf3ULL, 0xd548f000f5a99b49ULL, 0x748a9d2e181ad2a7ULL,
      0x61c4ddc682c709e1ULL};
  EXPECT_EQ(KeysOf({}, {}), expected);
}

TEST(StoryBandKeysTest, GoldenEntitiesOnly) {
  const BandKeys expected = {
      0xdd9675e9e96a1026ULL, 0xa9384ac463de4b83ULL, 0x59d741331c836001ULL,
      0xe76cb9039c302943ULL, 0x702923f282f054fcULL, 0x42f3979a376441a8ULL,
      0xa7fd95e58a8617c0ULL, 0x85d965500848a646ULL, 0x9537dd34c32cf6bcULL,
      0x24de0b9f463e3835ULL, 0x94877dadcde2bc70ULL, 0x065e5fe5649ed9d6ULL,
      0x9b7651d4570f933eULL, 0xc68b3522b0f3f626ULL, 0x69ba0cc2cd366889ULL,
      0x0781d4781200e246ULL};
  EXPECT_EQ(KeysOf(text::TermVector::FromEntries({{1, 1.0}, {2, 1.0},
                                                  {3, 2.0}}),
                   {}),
            expected);
}

TEST(StoryBandKeysTest, GoldenEntitiesAndKeywords) {
  const BandKeys expected = {
      0xeb0716d0f2d97d32ULL, 0x5a40f1534f802c79ULL, 0xe9d61ae0a1ad29c2ULL,
      0x4804f7d907e65391ULL, 0x02a1114bca26ad86ULL, 0x09c4f509868acbe5ULL,
      0xd1c127b623239aaaULL, 0x1b13dbb6f3106be2ULL, 0x141188287dd2d2d9ULL,
      0x01fa3d275627c652ULL, 0x99ea0334801c1b83ULL, 0x238cc48dfd5eea37ULL,
      0xb94cc5adb5af69edULL, 0x91985de1207f13f1ULL, 0xdd2cf20ce48e4378ULL,
      0x056f23280d6e4d39ULL};
  EXPECT_EQ(
      KeysOf(text::TermVector::FromEntries({{1, 1.0}, {2, 1.0}, {3, 2.0}}),
             text::TermVector::FromEntries(
                 {{1, 1.0}, {10, 2.0}, {11, 0.5}, {400, 3.0}})),
      expected);
}

// Property: the seed table and the inline hashes give the oracle's keys
// on random inputs, non-positive weights (which the oracle skips)
// included.
class StoryBandKeysOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoryBandKeysOracle, MatchesMinHashOracle) {
  Pcg32 rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::vector<text::TermVector::Entry> entities, keywords;
    const size_t num_entities = rng.NextBounded(12);
    const size_t num_keywords = rng.NextBounded(40);
    for (size_t i = 0; i < num_entities; ++i) {
      entities.push_back({rng.NextBounded(500), 1.0 + rng.NextBounded(3)});
    }
    for (size_t i = 0; i < num_keywords; ++i) {
      const double weight =
          rng.NextBounded(8) == 0 ? -1.0 : 0.5 + rng.NextBounded(4);
      keywords.push_back({rng.NextBounded(5000), weight});
    }
    const text::TermVector e = text::TermVector::FromEntries(entities);
    const text::TermVector k = text::TermVector::FromEntries(keywords);
    EXPECT_EQ(KeysOf(e, k), OracleKeys(e, k)) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoryBandKeysOracle,
                         ::testing::Values(11u, 22u, 33u));

// ------------------------ LSH behaviour of the keys ------------------------

TEST(StoryBandKeysTest, IdenticalContentGivesIdenticalKeys) {
  const BandKeys a = KeysOf(VectorOf({1, 2, 3}), VectorOf({9}));
  const BandKeys b = KeysOf(VectorOf({1, 2, 3}), VectorOf({9}));
  EXPECT_EQ(a, b);
  // Weights do not matter, only the positive-weight support does.
  EXPECT_EQ(a, KeysOf(text::TermVector::FromEntries(
                          {{1, 5.0}, {2, 0.25}, {3, 1.0}, {7, -1.0}}),
                      text::TermVector::FromEntries({{9, 3.0}})));
}

TEST(StoryBandKeysTest, EntityAndKeywordDomainsDistinct) {
  // The same raw TermId in the entity vs keyword domain must not collide.
  const BandKeys entity = KeysOf(VectorOf({1}), VectorOf({}));
  const BandKeys keyword = KeysOf(VectorOf({}), VectorOf({1}));
  EXPECT_FALSE(ShareABand(entity, keyword));
}

TEST(StoryBandKeysTest, NearDuplicateSetsCollide) {
  // Sets with Jaccard ~0.9 should collide with overwhelming probability
  // under 16 bands x 4 rows.
  std::vector<text::TermVector::Entry> a, b;
  for (text::TermId t = 0; t < 40; ++t) {
    a.push_back({t, 1.0});
    // Replace 2 of 40 elements -> Jaccard ~ 38/42 ~ 0.90.
    b.push_back({t < 2 ? 1000 + t : t, 1.0});
  }
  EXPECT_TRUE(ShareABand(KeysOf(text::TermVector::FromEntries(a), {}),
                         KeysOf(text::TermVector::FromEntries(b), {})));
}

TEST(StoryBandKeysTest, LowSimilaritySetsRarelyCollide) {
  // Many distinct random items; a fresh probe should match few of them.
  Pcg32 rng(6);
  auto random_keys = [&](text::TermId offset, uint32_t universe) {
    std::vector<text::TermVector::Entry> entries;
    for (int k = 0; k < 10; ++k) {
      entries.push_back({offset + rng.NextBounded(universe), 1.0});
    }
    return KeysOf(text::TermVector::FromEntries(entries), {});
  };
  std::vector<BandKeys> items;
  for (int i = 0; i < 200; ++i) items.push_back(random_keys(0, 100000));
  const BandKeys probe = random_keys(200000, 1000);
  size_t hits = 0;
  for (const BandKeys& item : items) hits += ShareABand(item, probe);
  EXPECT_LT(hits, 5u);
}

// Property: LSH recall for similar sets across seeds.
class BandKeysRecall : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BandKeysRecall, SimilarItemsCollide) {
  Pcg32 rng(GetParam());
  const int kItems = 50;
  const text::TermId salt = static_cast<text::TermId>(rng.NextBounded(1000));
  std::vector<BandKeys> items;
  for (int i = 0; i < kItems; ++i) {
    // Each item: 20 shared elements + 2 private ones => pairwise J ~ 0.83.
    std::vector<text::TermVector::Entry> entries;
    for (text::TermId t = 0; t < 20; ++t) entries.push_back({salt + t, 1.0});
    entries.push_back({10000 + 2 * static_cast<text::TermId>(i), 1.0});
    entries.push_back({10001 + 2 * static_cast<text::TermId>(i), 1.0});
    items.push_back(KeysOf(text::TermVector::FromEntries(entries), {}));
  }
  // Every item should collide with most of its near-duplicates.
  size_t total_hits = 0;
  for (const BandKeys& a : items) {
    for (const BandKeys& b : items) total_hits += ShareABand(a, b);
  }
  EXPECT_GT(total_hits, static_cast<size_t>(kItems) * kItems * 8 / 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandKeysRecall, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace storypivot
