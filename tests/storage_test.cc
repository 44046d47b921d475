#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "storage/snippet_store.h"
#include "storage/temporal_index.h"
#include "util/rng.h"

namespace storypivot {
namespace {

// ----------------------------- TemporalIndex -------------------------------

TEST(TemporalIndexTest, InsertKeepsTimeOrder) {
  TemporalIndex index;
  index.Insert(30, 3);
  index.Insert(10, 1);
  index.Insert(20, 2);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.entries()[0].second, 1u);
  EXPECT_EQ(index.entries()[2].second, 3u);
  EXPECT_EQ(index.min_time(), 10);
  EXPECT_EQ(index.max_time(), 30);
}

TEST(TemporalIndexTest, WindowQueryInclusive) {
  TemporalIndex index;
  for (Timestamp t = 0; t < 100; t += 10) {
    index.Insert(t, static_cast<SnippetId>(t));
  }
  std::vector<SnippetId> ids = index.IdsInWindow(20, 50);
  ASSERT_EQ(ids.size(), 4u);  // 20, 30, 40, 50.
  EXPECT_EQ(ids.front(), 20u);
  EXPECT_EQ(ids.back(), 50u);
  EXPECT_EQ(index.CountInWindow(20, 50), 4u);
}

TEST(TemporalIndexTest, EmptyWindow) {
  TemporalIndex index;
  index.Insert(100, 1);
  EXPECT_TRUE(index.IdsInWindow(0, 50).empty());
  EXPECT_TRUE(index.IdsInWindow(150, 200).empty());
  EXPECT_EQ(index.CountInWindow(0, 50), 0u);
}

TEST(TemporalIndexTest, DuplicateTimestampsAllKept) {
  TemporalIndex index;
  index.Insert(5, 1);
  index.Insert(5, 2);
  index.Insert(5, 3);
  EXPECT_EQ(index.CountInWindow(5, 5), 3u);
}

TEST(TemporalIndexTest, EraseSpecificEntry) {
  TemporalIndex index;
  index.Insert(5, 1);
  index.Insert(5, 2);
  EXPECT_TRUE(index.Erase(5, 1));
  EXPECT_FALSE(index.Erase(5, 1));   // Already gone.
  EXPECT_FALSE(index.Erase(99, 2));  // Wrong timestamp.
  ASSERT_EQ(index.size(), 1u);
  EXPECT_EQ(index.entries()[0].second, 2u);
}

TEST(TemporalIndexTest, WindowBoundariesExactlyInclusive) {
  // The identification window is [t - w, t + w] (§2.2): an entry sitting
  // exactly on either edge is inside; one tick beyond is outside.
  TemporalIndex index;
  index.Insert(100, 1);  // == lo
  index.Insert(150, 2);  // interior
  index.Insert(200, 3);  // == hi
  index.Insert(99, 4);   // lo - 1
  index.Insert(201, 5);  // hi + 1
  std::vector<SnippetId> ids = index.IdsInWindow(100, 200);
  EXPECT_EQ(ids, (std::vector<SnippetId>{1, 2, 3}));
  EXPECT_EQ(index.CountInWindow(100, 200), 3u);
  // A degenerate window lo == hi still matches the edge entry.
  EXPECT_EQ(index.IdsInWindow(100, 100), std::vector<SnippetId>{1});
  EXPECT_EQ(index.CountInWindow(200, 200), 1u);
  // An inverted window (lo > hi) matches nothing.
  EXPECT_TRUE(index.IdsInWindow(200, 100).empty());
  EXPECT_EQ(index.CountInWindow(200, 100), 0u);
}

TEST(TemporalIndexTest, CountAgreesWithIdsAcrossWindows) {
  // CountInWindow must agree with IdsInWindow().size() and with
  // ForEachInWindow for every window shape, including ties on the edges.
  TemporalIndex index;
  const Timestamp times[] = {5, 5, 5, 10, 10, 20, 25, 25, 40};
  SnippetId next = 0;
  for (Timestamp t : times) index.Insert(t, next++);
  const std::pair<Timestamp, Timestamp> windows[] = {
      {0, 100}, {5, 5},  {5, 10},  {6, 9},   {10, 25},
      {25, 25}, {26, 39}, {40, 40}, {41, 99}, {30, 10}};
  for (const auto& [lo, hi] : windows) {
    std::vector<SnippetId> ids = index.IdsInWindow(lo, hi);
    EXPECT_EQ(index.CountInWindow(lo, hi), ids.size())
        << "window [" << lo << ", " << hi << "]";
    size_t visited = 0;
    index.ForEachInWindow(lo, hi, [&](Timestamp ts, SnippetId) {
      EXPECT_GE(ts, lo);
      EXPECT_LE(ts, hi);
      ++visited;
    });
    EXPECT_EQ(visited, ids.size()) << "window [" << lo << ", " << hi << "]";
  }
}

TEST(TemporalIndexTest, ForEachVisitsInOrder) {
  TemporalIndex index;
  index.Insert(3, 30);
  index.Insert(1, 10);
  index.Insert(2, 20);
  std::vector<Timestamp> seen;
  index.ForEachInWindow(0, 10, [&](Timestamp ts, SnippetId) {
    seen.push_back(ts);
  });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 3u);
}

// Property: the index agrees with a naive reference implementation under
// random out-of-order inserts and erases, with timestamps and windows on
// both sides of the epoch (negative timestamps are pre-1970 dates) and a
// few entries at the two extreme timestamps. The index grows past three
// chunk capacities (512 entries), so chunks split, then drains to empty,
// so every chunk empties. At every checkpoint ForEach visits the entries
// in (timestamp, id) order and the window over the whole time axis lists
// exactly those ids: complete identification reads its candidates so.
class TemporalIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TemporalIndexProperty, MatchesNaiveReference) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  Pcg32 rng(GetParam());
  TemporalIndex index;
  std::vector<TemporalIndex::Entry> reference;
  SnippetId next_id = 0;

  auto check = [&]() {
    Timestamp lo = rng.NextInRange(-600, 1000);
    Timestamp hi = lo + rng.NextInRange(0, 300);
    std::set<SnippetId> expected;
    for (auto [ts, id] : reference) {
      if (ts >= lo && ts <= hi) expected.insert(id);
    }
    std::vector<SnippetId> got = index.IdsInWindow(lo, hi);
    EXPECT_EQ(std::set<SnippetId>(got.begin(), got.end()), expected);
    EXPECT_EQ(index.CountInWindow(lo, hi), expected.size());

    std::vector<TemporalIndex::Entry> sorted = reference;
    std::sort(sorted.begin(), sorted.end());
    std::vector<TemporalIndex::Entry> visited;
    index.ForEach([&visited](Timestamp ts, SnippetId id) {
      visited.emplace_back(ts, id);
    });
    ASSERT_EQ(visited, sorted);
    std::vector<SnippetId> all;
    for (const auto& [ts, id] : visited) all.push_back(id);
    EXPECT_EQ(index.IdsInWindow(kMin, kMax), all);
    EXPECT_EQ(index.CountInWindow(kMin, kMax), all.size());
  };
  auto erase_one = [&]() {
    size_t pick = rng.NextBounded(static_cast<uint32_t>(reference.size()));
    auto [ts, id] = reference[pick];
    EXPECT_TRUE(index.Erase(ts, id));
    reference.erase(reference.begin() + static_cast<ptrdiff_t>(pick));
  };

  size_t peak = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!reference.empty() && rng.NextBernoulli(0.2)) {
      erase_one();
    } else {
      const uint32_t extreme = rng.NextBounded(100);
      Timestamp ts = extreme == 0   ? kMin
                     : extreme == 1 ? kMax
                                    : rng.NextInRange(-500, 1000);
      SnippetId id = next_id++;
      index.Insert(ts, id);
      reference.push_back({ts, id});
    }
    peak = std::max(peak, reference.size());
    if (step % 50 == 0) check();
  }
  EXPECT_EQ(index.size(), reference.size());
  EXPECT_GT(peak, 3u * 512u);  // So at least three chunks split.
  while (!reference.empty()) {
    erase_one();
    if (reference.size() % 50 == 0) check();
  }
  EXPECT_TRUE(index.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalIndexProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ------------------------------ SnippetStore -------------------------------

Snippet MakeSnippet(SnippetId id, const std::string& url) {
  Snippet s;
  s.id = id;
  s.source = 0;
  s.timestamp = 100;
  s.document_url = url;
  return s;
}

TEST(SnippetStoreTest, AssignsIdsWhenMissing) {
  SnippetStore store;
  Snippet s = MakeSnippet(kInvalidSnippetId, "u1");
  Result<SnippetId> id1 = store.Insert(s);
  Result<SnippetId> id2 = store.Insert(MakeSnippet(kInvalidSnippetId, "u2"));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(id1.value(), id2.value());
  EXPECT_EQ(store.size(), 2u);
}

TEST(SnippetStoreTest, ExplicitIdsRespectedAndDuplicatesRejected) {
  SnippetStore store;
  ASSERT_TRUE(store.Insert(MakeSnippet(7, "u")).ok());
  Result<SnippetId> dup = store.Insert(MakeSnippet(7, "u"));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Auto ids continue above explicit ones.
  Result<SnippetId> next = store.Insert(MakeSnippet(kInvalidSnippetId, "v"));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next.value(), 7u);
}

TEST(SnippetStoreTest, FindAndRemove) {
  SnippetStore store;
  SnippetId id = store.Insert(MakeSnippet(kInvalidSnippetId, "u")).value();
  ASSERT_NE(store.Find(id), nullptr);
  EXPECT_EQ(store.Find(id)->document_url, "u");
  EXPECT_TRUE(store.Remove(id).ok());
  EXPECT_EQ(store.Find(id), nullptr);
  EXPECT_EQ(store.Remove(id).code(), StatusCode::kNotFound);
}

TEST(SnippetStoreTest, FindByDocumentTracksAllSnippets) {
  SnippetStore store;
  SnippetId a = store.Insert(MakeSnippet(kInvalidSnippetId, "doc1")).value();
  SnippetId b = store.Insert(MakeSnippet(kInvalidSnippetId, "doc1")).value();
  SP_CHECK_OK(store.Insert(MakeSnippet(kInvalidSnippetId, "doc2")));
  std::vector<SnippetId> ids = store.FindByDocument("doc1");
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(std::count(ids.begin(), ids.end(), a) == 1);
  EXPECT_TRUE(std::count(ids.begin(), ids.end(), b) == 1);
  EXPECT_TRUE(store.FindByDocument("nope").empty());
  // Removal unlinks from the document map too.
  ASSERT_TRUE(store.Remove(a).ok());
  EXPECT_EQ(store.FindByDocument("doc1").size(), 1u);
}

TEST(SnippetStoreTest, ForEachVisitsAll) {
  SnippetStore store;
  for (int i = 0; i < 5; ++i) {
    SP_CHECK_OK(store.Insert(MakeSnippet(kInvalidSnippetId, "u")));
  }
  size_t count = 0;
  store.ForEach([&](const Snippet&) { ++count; });
  EXPECT_EQ(count, 5u);
}

}  // namespace
}  // namespace storypivot
