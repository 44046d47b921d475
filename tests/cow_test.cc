// Unit tests for the persistent data-structures subsystem (src/cow/):
// CowBox, PersistentMap (HAMT) and SortedRuns. The properties pinned
// here — O(1) freeze, write immunity of frozen copies, content-
// deterministic iteration order — are what the serving tier's
// copy-on-write snapshot capture is built on (DESIGN.md §15).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cow/cow_box.h"
#include "cow/persistent_map.h"
#include "cow/sorted_runs.h"
#include "cow/stats.h"

namespace storypivot::cow {
namespace {

TEST(CowBoxTest, CopyIsSharedUntilMutate) {
  CowBox<std::vector<int>> original(std::vector<int>{1, 2, 3});
  CowBox<std::vector<int>> frozen = original;
  EXPECT_FALSE(original.unique());
  EXPECT_EQ(&original.read(), &frozen.read());

  original.Mutate()->push_back(4);
  EXPECT_TRUE(original.unique());
  EXPECT_TRUE(frozen.unique());
  EXPECT_EQ(original.read().size(), 4u);
  EXPECT_EQ(frozen.read().size(), 3u);  // Frozen copy is write-immune.
}

TEST(CowBoxTest, MutateInPlaceWhenUnique) {
  CowBox<std::vector<int>> box(std::vector<int>{7});
  const std::vector<int>* payload = &box.read();
  box.Mutate()->push_back(8);
  EXPECT_EQ(payload, &box.read());  // No clone happened.
}

TEST(CowBoxTest, SharedMutationRecordsACopy) {
  CowBox<std::vector<int>> box(std::vector<int>(100, 1));
  CowBox<std::vector<int>> frozen = box;
  const CopyCounters before = ReadCopyCounters();
  (void)box.Mutate();
  const CopyCounters after = ReadCopyCounters();
  EXPECT_EQ(after.copies, before.copies + 1);
  EXPECT_GE(after.bytes - before.bytes, 100 * sizeof(int));
  // And now that it is unique again, further mutations are free.
  const CopyCounters again = ReadCopyCounters();
  (void)box.Mutate();
  EXPECT_EQ(ReadCopyCounters().copies, again.copies);
  (void)frozen;
}

/// "v<i>", built by appending: g++ 12 warns a false -Wrestrict on the
/// string concatenation `"v" + std::to_string(i)`.
std::string ValueName(uint32_t i) {
  std::string name = "v";
  name += std::to_string(i);
  return name;
}

TEST(PersistentMapTest, InsertFindErase) {
  PersistentMap<uint32_t, std::string> map;
  EXPECT_TRUE(map.empty());
  for (uint32_t i = 0; i < 500; ++i) {
    auto [value, inserted] = map.Emplace(i, ValueName(i));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, ValueName(i));
  }
  EXPECT_EQ(map.size(), 500u);
  auto [existing, inserted] = map.Emplace(42, "other");
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*existing, "v42");  // Duplicate emplace leaves value alone.
  EXPECT_EQ(map.size(), 500u);

  for (uint32_t i = 0; i < 500; ++i) {
    const std::string* found = map.Find(i);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, ValueName(i));
  }
  EXPECT_EQ(map.Find(1000u), nullptr);
  EXPECT_FALSE(map.Erase(1000u));

  for (uint32_t i = 0; i < 500; i += 2) EXPECT_TRUE(map.Erase(i));
  EXPECT_EQ(map.size(), 250u);
  for (uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(map.contains(i), i % 2 == 1) << i;
  }
}

TEST(PersistentMapTest, GetOrInsertAndFindMutable) {
  PersistentMap<int, std::vector<int>> map;
  map.GetOrInsert(1).push_back(10);
  map.GetOrInsert(1).push_back(11);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), (std::vector<int>{10, 11}));

  EXPECT_EQ(map.FindMutable(2), nullptr);
  std::vector<int>* value = map.FindMutable(1);
  ASSERT_NE(value, nullptr);
  value->push_back(12);
  EXPECT_EQ(map.Find(1)->size(), 3u);
}

TEST(PersistentMapTest, HeterogeneousStringLookup) {
  PersistentMap<std::string, int, std::hash<std::string_view>> map;
  map.Emplace("alpha", 1);
  map.Emplace("beta", 2);
  const std::string_view view = "alpha";
  ASSERT_NE(map.Find(view), nullptr);  // No std::string temporary needed.
  EXPECT_EQ(*map.Find(view), 1);
  EXPECT_TRUE(map.Erase(std::string_view("beta")));
  EXPECT_EQ(map.size(), 1u);
}

TEST(PersistentMapTest, FrozenCopyIsWriteImmune) {
  PersistentMap<uint32_t, int> map;
  for (uint32_t i = 0; i < 200; ++i) map.Emplace(i, static_cast<int>(i));
  const PersistentMap<uint32_t, int> frozen = map;  // O(1) freeze.

  for (uint32_t i = 0; i < 200; i += 3) map.Erase(i);
  for (uint32_t i = 200; i < 400; ++i) map.Emplace(i, -1);
  for (uint32_t i = 0; i < 200; i += 7) {
    if (int* v = map.FindMutable(i)) *v = 999;
  }

  // The frozen copy still sees exactly the pre-freeze state.
  EXPECT_EQ(frozen.size(), 200u);
  for (uint32_t i = 0; i < 200; ++i) {
    const int* v = frozen.Find(i);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, static_cast<int>(i)) << i;
  }
  EXPECT_EQ(frozen.Find(300u), nullptr);
}

// Iteration order must be a pure function of the key set, independent
// of insertion/erase history — the engine's snapshot-equals-rebuild
// invariant leans on this.
TEST(PersistentMapTest, IterationOrderIsContentDeterministic) {
  std::vector<uint32_t> keys;
  for (uint32_t i = 0; i < 300; ++i) keys.push_back(i * 17 + 3);

  PersistentMap<uint32_t, int> forward;
  for (uint32_t k : keys) forward.Emplace(k, 0);

  PersistentMap<uint32_t, int> shuffled;
  std::mt19937 rng(7);
  std::vector<uint32_t> order = keys;
  std::shuffle(order.begin(), order.end(), rng);
  // Also insert (then erase) noise keys so the trie shape history
  // differs even more.
  for (uint32_t k : order) {
    shuffled.Emplace(k, 0);
    shuffled.Emplace(k + 1000000, 0);
  }
  for (uint32_t k : order) shuffled.Erase(k + 1000000);

  std::vector<uint32_t> a, b;
  forward.ForEach([&](uint32_t k, int) { a.push_back(k); });
  shuffled.ForEach([&](uint32_t k, int) { b.push_back(k); });
  EXPECT_EQ(a, b);

  // Iterator agrees with ForEach.
  std::vector<uint32_t> c;
  for (const auto& [k, v] : forward) c.push_back(k);
  EXPECT_EQ(a, c);
}

struct DegenerateHash {
  size_t operator()(int key) const {
    return static_cast<size_t>(key % 3);  // Everything collides.
  }
};

TEST(PersistentMapTest, SurvivesFullHashCollisions) {
  PersistentMap<int, int, DegenerateHash> map;
  for (int i = 0; i < 100; ++i) map.Emplace(i, i * 2);
  EXPECT_EQ(map.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(map.Find(i), nullptr) << i;
    EXPECT_EQ(*map.Find(i), i * 2);
  }
  // Collision buckets sort by key, so order is still content-determined.
  PersistentMap<int, int, DegenerateHash> other;
  for (int i = 99; i >= 0; --i) other.Emplace(i, i * 2);
  std::vector<int> a, b;
  map.ForEach([&](int k, int) { a.push_back(k); });
  other.ForEach([&](int k, int) { b.push_back(k); });
  EXPECT_EQ(a, b);

  const PersistentMap<int, int, DegenerateHash> frozen = map;
  for (int i = 0; i < 100; i += 2) map.Erase(i);
  EXPECT_EQ(frozen.size(), 100u);
  EXPECT_NE(frozen.Find(0), nullptr);
  EXPECT_EQ(map.size(), 50u);
}

TEST(PersistentMapTest, MatchesReferenceUnderRandomizedChurn) {
  std::mt19937 rng(1234);
  PersistentMap<uint32_t, uint32_t> map;
  std::unordered_map<uint32_t, uint32_t> reference;
  std::vector<std::pair<PersistentMap<uint32_t, uint32_t>,
                        std::map<uint32_t, uint32_t>>>
      snapshots;
  for (int step = 0; step < 4000; ++step) {
    const uint32_t key = rng() % 700;
    switch (rng() % 4) {
      case 0:
      case 1: {
        const uint32_t value = rng();
        map.GetOrInsert(key) = value;
        reference[key] = value;
        break;
      }
      case 2:
        EXPECT_EQ(map.Erase(key), reference.erase(key) > 0);
        break;
      default:
        if (uint32_t* v = map.FindMutable(key)) {
          *v += 1;
          reference[key] += 1;
        }
        break;
    }
    if (step % 500 == 0) {
      snapshots.emplace_back(
          map, std::map<uint32_t, uint32_t>(reference.begin(),
                                            reference.end()));
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_NE(map.Find(key), nullptr) << key;
    EXPECT_EQ(*map.Find(key), value);
  }
  // Every frozen snapshot still matches the reference taken with it.
  for (const auto& [frozen, expected] : snapshots) {
    std::map<uint32_t, uint32_t> got;
    frozen.ForEach([&](uint32_t k, uint32_t v) { got[k] = v; });
    EXPECT_EQ(got, expected);
  }
}

// -------------------------------- SortedRuns -------------------------------

constexpr size_t kSmallRun = 8;
using SmallRuns = SortedRuns<int, std::less<int>, kSmallRun>;

/// Non-empty runs of at most kSmallRun, strictly increasing across run
/// boundaries, adding up to size().
void ExpectWellFormed(const SmallRuns& runs) {
  size_t total = 0;
  bool first = true;
  int last = 0;
  for (const SmallRuns::Run& run : runs.runs()) {
    ASSERT_FALSE(run.read().empty());
    ASSERT_LE(run.read().size(), kSmallRun);
    for (int value : run.read()) {
      if (!first) {
        ASSERT_LT(last, value);
      }
      first = false;
      last = value;
    }
    total += run.read().size();
  }
  EXPECT_EQ(total, runs.size());
}

TEST(SortedRunsTest, TailAppendPastAFullRunOpensARun) {
  SmallRuns runs;
  for (int v = 0; v < static_cast<int>(kSmallRun); ++v) {
    EXPECT_TRUE(runs.Insert(v));
  }
  ASSERT_EQ(runs.runs().size(), 1u);
  const SmallRuns frozen = runs;
  const CopyCounters before = ReadCopyCounters();
  EXPECT_TRUE(runs.Insert(100));
  // The spine is cloned; the full run stays shared with the copy.
  EXPECT_EQ(ReadCopyCounters().copies, before.copies + 1);
  ASSERT_EQ(runs.runs().size(), 2u);
  EXPECT_EQ(&runs.runs()[0].read(), &frozen.runs()[0].read());
  EXPECT_EQ(runs.runs()[1].read(), std::vector<int>{100});

  // An insert inside a full run splits it in halves.
  EXPECT_TRUE(runs.Insert(-1));
  ASSERT_EQ(runs.runs().size(), 3u);
  EXPECT_EQ(runs.runs()[0].read().size(), (kSmallRun + 1) / 2);
  ExpectWellFormed(runs);
  EXPECT_EQ(frozen.Flatten(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SortedRunsTest, DuplicatesAndMissesChangeNothing) {
  SmallRuns runs;
  EXPECT_TRUE(runs.Insert(3));
  EXPECT_TRUE(runs.Insert(1));
  const SmallRuns frozen = runs;
  const CopyCounters before = ReadCopyCounters();
  EXPECT_FALSE(runs.Insert(3));
  EXPECT_FALSE(runs.Erase(2));
  EXPECT_EQ(ReadCopyCounters().copies, before.copies);
  EXPECT_EQ(runs.Flatten(), (std::vector<int>{1, 3}));

  // Erasing a run's last element removes the run.
  EXPECT_TRUE(runs.Erase(1));
  EXPECT_TRUE(runs.Erase(3));
  EXPECT_TRUE(runs.empty());
  EXPECT_TRUE(runs.runs().empty());
  EXPECT_EQ(frozen.Flatten(), (std::vector<int>{1, 3}));
}

// Property: under random inserts (a third of them tail appends, as a
// live feed posts them), duplicate inserts and erases of present and
// absent values, the runs flatten to a sorted reference. Copies taken
// along the way stay alive and unchanged. A mirror fed the same writes
// but never copied records no copy, and every write clones at most the
// spine and one run. The sequence grows to hundreds of runs, then drains
// to empty, so runs split, open at the tail and empty.
class SortedRunsProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SortedRunsProperty, MatchesSortedReference) {
  std::mt19937 rng(GetParam());
  SmallRuns runs;
  SmallRuns mirror;  // The same writes; never copied.
  std::set<int> reference;
  std::vector<std::pair<SmallRuns, std::vector<int>>> copies;
  int tail = 1000;

  auto apply = [&](const std::function<bool(SmallRuns*)>& write) {
    const uint64_t before = ReadCopyCounters().copies;
    const bool changed = write(&runs);
    const uint64_t recorded = ReadCopyCounters().copies - before;
    EXPECT_LE(recorded, 2u);  // The spine and one run at most.
    EXPECT_EQ(write(&mirror), changed);
    EXPECT_EQ(ReadCopyCounters().copies, before + recorded);
    return changed;
  };
  auto insert = [&](int value) {
    const bool fresh = reference.insert(value).second;
    EXPECT_EQ(apply([value](SmallRuns* r) { return r->Insert(value); }),
              fresh);
  };
  auto erase = [&](int value) {
    const bool present = reference.erase(value) > 0;
    EXPECT_EQ(apply([value](SmallRuns* r) { return r->Erase(value); }),
              present);
  };
  auto erase_some = [&]() {
    if (reference.empty() || rng() % 4 == 0) {
      erase(static_cast<int>(rng() % 3000));  // Often absent.
      return;
    }
    auto it = reference.begin();
    std::advance(it, rng() % reference.size());
    erase(*it);
  };
  auto check = [&]() {
    ExpectWellFormed(runs);
    const std::vector<int> expected(reference.begin(), reference.end());
    ASSERT_EQ(runs.Flatten(), expected);
    ASSERT_EQ(mirror.Flatten(), expected);
  };

  size_t peak_runs = 0;
  for (int step = 0; step < 4000; ++step) {
    const uint32_t pick = rng() % 10;
    if (pick < 3) {
      erase_some();
    } else if (pick < 6) {
      insert(tail++);
    } else {
      insert(static_cast<int>(rng() % 1000));
    }
    peak_runs = std::max(peak_runs, runs.runs().size());
    if (step % 50 == 0) check();
    if (step % 300 == 299) copies.emplace_back(runs, runs.Flatten());
  }
  EXPECT_GT(peak_runs, 100u);
  for (int removed = 0; !reference.empty(); ++removed) {
    auto it = reference.begin();
    std::advance(it, rng() % reference.size());
    erase(*it);
    if (removed % 50 == 0) check();
    if (removed % 300 == 299) copies.emplace_back(runs, runs.Flatten());
  }
  check();
  EXPECT_TRUE(runs.runs().empty());
  for (const auto& [copy, expected] : copies) {
    ExpectWellFormed(copy);
    EXPECT_EQ(copy.Flatten(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortedRunsProperty,
                         ::testing::Values(5u, 6u, 7u, 8u));

}  // namespace
}  // namespace storypivot::cow
