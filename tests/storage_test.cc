#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "cow/stats.h"
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
}

TEST(TemporalIndexTest, EmptyWindow) {
  TemporalIndex index;
  index.Insert(100, 1);
  EXPECT_TRUE(index.IdsInWindow(0, 50).empty());
  EXPECT_TRUE(index.IdsInWindow(150, 200).empty());
}

TEST(TemporalIndexTest, DuplicateTimestampsAllKept) {
  TemporalIndex index;
  index.Insert(5, 1);
  index.Insert(5, 2);
  index.Insert(5, 3);
  EXPECT_EQ(index.IdsInWindow(5, 5), (std::vector<SnippetId>{1, 2, 3}));
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
  // A degenerate window lo == hi still matches the edge entry.
  EXPECT_EQ(index.IdsInWindow(100, 100), std::vector<SnippetId>{1});
  EXPECT_EQ(index.IdsInWindow(200, 200), std::vector<SnippetId>{3});
  // An inverted window (lo > hi) matches nothing.
  EXPECT_TRUE(index.IdsInWindow(200, 100).empty());
}

TEST(TemporalIndexTest, ForEachAgreesWithIdsAcrossWindows) {
  // ForEachInWindow must visit exactly IdsInWindow's ids, in its order,
  // for every window shape, including ties on the edges.
  TemporalIndex index;
  const Timestamp times[] = {5, 5, 5, 10, 10, 20, 25, 25, 40};
  SnippetId next = 0;
  for (Timestamp t : times) index.Insert(t, next++);
  const std::pair<Timestamp, Timestamp> windows[] = {
      {0, 100}, {5, 5},  {5, 10},  {6, 9},   {10, 25},
      {25, 25}, {26, 39}, {40, 40}, {41, 99}, {30, 10}};
  for (const auto& [lo, hi] : windows) {
    std::vector<SnippetId> visited;
    index.ForEachInWindow(lo, hi, [&](Timestamp ts, SnippetId id) {
      EXPECT_GE(ts, lo);
      EXPECT_LE(ts, hi);
      visited.push_back(id);
    });
    EXPECT_EQ(visited, index.IdsInWindow(lo, hi))
        << "window [" << lo << ", " << hi << "]";
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
//
// Copies taken along the way stay alive through every later insert,
// erase, split and emptied chunk, and still list what the index held when
// they were taken: a snapshot's partitions are such copies (DESIGN.md
// §15). The copy counters show what that isolation costs the writer: a
// mirror index fed the same operations but never copied records no copy,
// a write clones at most the spine and one chunk, the first insert after
// a copy clones exactly those two, and the first erase at least one.
class TemporalIndexProperty : public ::testing::TestWithParam<uint64_t> {};

std::vector<TemporalIndex::Entry> EntriesOf(const TemporalIndex& index) {
  std::vector<TemporalIndex::Entry> out;
  index.ForEach([&out](Timestamp ts, SnippetId id) {
    out.emplace_back(ts, id);
  });
  return out;
}

TEST_P(TemporalIndexProperty, MatchesNaiveReference) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  Pcg32 rng(GetParam());
  TemporalIndex index;
  TemporalIndex unshared;  // The same operations; never copied.
  std::vector<TemporalIndex::Entry> reference;
  std::vector<std::pair<TemporalIndex, std::vector<TemporalIndex::Entry>>>
      copies;
  SnippetId next_id = 0;

  auto sorted_reference = [&]() {
    std::vector<TemporalIndex::Entry> sorted = reference;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  };
  auto check = [&]() {
    Timestamp lo = rng.NextInRange(-600, 1000);
    Timestamp hi = lo + rng.NextInRange(0, 300);
    std::set<SnippetId> expected;
    for (auto [ts, id] : reference) {
      if (ts >= lo && ts <= hi) expected.insert(id);
    }
    std::vector<SnippetId> got = index.IdsInWindow(lo, hi);
    EXPECT_EQ(std::set<SnippetId>(got.begin(), got.end()), expected);

    const std::vector<TemporalIndex::Entry> visited = EntriesOf(index);
    ASSERT_EQ(visited, sorted_reference());
    EXPECT_EQ(EntriesOf(unshared), visited);
    std::vector<SnippetId> all;
    for (const auto& [ts, id] : visited) all.push_back(id);
    EXPECT_EQ(index.IdsInWindow(kMin, kMax), all);
  };
  // Applies `op` to both indexes and returns the copies `index` recorded.
  auto apply = [&](const std::function<void(TemporalIndex*)>& op) {
    const uint64_t before = cow::ReadCopyCounters().copies;
    op(&index);
    const uint64_t recorded = cow::ReadCopyCounters().copies - before;
    EXPECT_LE(recorded, 2u);  // The spine and one chunk at most.
    op(&unshared);
    EXPECT_EQ(cow::ReadCopyCounters().copies, before + recorded);
    return recorded;
  };
  auto insert = [&](Timestamp ts) {
    const SnippetId id = next_id++;
    reference.push_back({ts, id});
    return apply([ts, id](TemporalIndex* i) { i->Insert(ts, id); });
  };
  auto erase_one = [&]() {
    size_t pick = rng.NextBounded(static_cast<uint32_t>(reference.size()));
    auto [ts, id] = reference[pick];
    reference.erase(reference.begin() + static_cast<ptrdiff_t>(pick));
    return apply(
        [ts, id](TemporalIndex* i) { EXPECT_TRUE(i->Erase(ts, id)); });
  };
  // The first write after a copy meets a shared spine; it is an insert
  // and an erase in turn.
  auto take_copy = [&]() {
    copies.emplace_back(index, sorted_reference());
    if (copies.size() % 2 == 0) {
      EXPECT_GE(erase_one(), 1u) << "copy " << copies.size();
    } else {
      EXPECT_EQ(insert(rng.NextInRange(-500, 1000)), 2u)
          << "copy " << copies.size();
    }
  };

  size_t peak = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!reference.empty() && rng.NextBernoulli(0.2)) {
      erase_one();
    } else {
      const uint32_t extreme = rng.NextBounded(100);
      insert(extreme == 0   ? kMin
             : extreme == 1 ? kMax
                            : rng.NextInRange(-500, 1000));
    }
    peak = std::max(peak, reference.size());
    if (step % 50 == 0) check();
    if (step % 400 == 399 && !reference.empty()) take_copy();
  }
  EXPECT_EQ(index.size(), reference.size());
  EXPECT_GT(peak, 3u * 512u);  // So at least three chunks split.
  for (int removed = 0; !reference.empty(); ++removed) {
    erase_one();
    if (reference.size() % 50 == 0) check();
    if (removed % 400 == 399 && !reference.empty()) take_copy();
  }
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(unshared.empty());
  for (const auto& [copy, expected] : copies) {
    EXPECT_EQ(copy.size(), expected.size());
    EXPECT_EQ(EntriesOf(copy), expected);
  }
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
