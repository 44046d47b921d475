#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/identifier.h"
#include "core/story_set.h"
#include "cow/stats.h"
#include "model/time.h"
#include "text/tfidf.h"
#include "util/rng.h"

namespace storypivot {
namespace {

class IdentifierFixture : public ::testing::Test {
 protected:
  IdentifierFixture() : stories_(0), model_({}, nullptr) {}

  // Stores a snippet and returns a stable pointer.
  const Snippet& Put(Timestamp ts,
                     std::vector<std::pair<text::TermId, double>> entities,
                     std::vector<std::pair<text::TermId, double>> keywords) {
    Snippet s;
    s.source = 0;
    s.timestamp = ts;
    s.entities = text::TermVector::FromEntries(std::move(entities));
    s.keywords = text::TermVector::FromEntries(std::move(keywords));
    SnippetId id = store_.Insert(std::move(s)).value();
    return *store_.Find(id);
  }

  StoryId Identify(const StoryIdentifier& identifier, const Snippet& snippet) {
    return identifier.Identify(snippet, &stories_, store_, &next_story_id_);
  }

  SnippetStore store_;
  StorySet stories_;
  SimilarityModel model_;
  StoryId next_story_id_ = 0;
};

// ------------------------------- StorySet ----------------------------------

TEST_F(IdentifierFixture, StorySetCreateAddRemove) {
  const Snippet& a = Put(100, {{0, 1.0}}, {{5, 1.0}});
  stories_.CreateStory(7);
  stories_.AddSnippetToStory(a, 7);
  EXPECT_EQ(stories_.StoryOf(a.id), 7u);
  EXPECT_EQ(stories_.num_snippets(), 1u);
  EXPECT_EQ(stories_.snippet_times().size(), 1u);
  ASSERT_NE(stories_.FindStory(7), nullptr);
  EXPECT_EQ(stories_.FindStory(7)->size(), 1u);

  stories_.RemoveSnippet(a, store_);
  EXPECT_EQ(stories_.StoryOf(a.id), kInvalidStoryId);
  EXPECT_EQ(stories_.FindStory(7), nullptr);  // Empty stories are deleted.
  EXPECT_TRUE(stories_.snippet_times().empty());
}

TEST_F(IdentifierFixture, StorySetMerge) {
  const Snippet& a = Put(100, {{0, 1.0}}, {});
  const Snippet& b = Put(200, {{1, 1.0}}, {});
  stories_.CreateStory(1);
  stories_.CreateStory(2);
  stories_.AddSnippetToStory(a, 1);
  stories_.AddSnippetToStory(b, 2);
  StoryId survivor = stories_.MergeStories({1, 2});
  EXPECT_EQ(survivor, 1u);
  EXPECT_EQ(stories_.StoryOf(a.id), 1u);
  EXPECT_EQ(stories_.StoryOf(b.id), 1u);
  EXPECT_EQ(stories_.FindStory(2), nullptr);
  EXPECT_EQ(stories_.FindStory(1)->size(), 2u);
}

TEST_F(IdentifierFixture, StorySetSplit) {
  const Snippet& a = Put(100, {{0, 1.0}}, {});
  const Snippet& b = Put(200, {{1, 1.0}}, {});
  const Snippet& c = Put(300, {{2, 1.0}}, {});
  stories_.CreateStory(1);
  stories_.AddSnippetToStory(a, 1);
  stories_.AddSnippetToStory(b, 1);
  stories_.AddSnippetToStory(c, 1);
  next_story_id_ = 10;
  std::vector<StoryId> parts =
      stories_.SplitStory(1, {{a.id, b.id}, {c.id}}, store_, &next_story_id_);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], 1u);    // First component keeps the id.
  EXPECT_EQ(parts[1], 10u);   // Second gets a fresh one.
  EXPECT_EQ(stories_.StoryOf(c.id), 10u);
  EXPECT_EQ(stories_.FindStory(1)->size(), 2u);
  EXPECT_EQ(stories_.FindStory(10)->size(), 1u);
  EXPECT_EQ(stories_.FindStory(10)->start_time(), 300);
}

// Every creation or mutation stamps the story with a value the partition
// never handed out before, so an unchanged (id, stamp) means unchanged
// content, also for an id that was split or emptied and re-created.
TEST_F(IdentifierFixture, StorySetStampsEveryMutation) {
  const Snippet& a = Put(100, {{0, 1.0}}, {});
  const Snippet& b = Put(200, {{1, 1.0}}, {});
  const Snippet& c = Put(300, {{2, 1.0}}, {});
  std::set<uint64_t> seen;
  auto fresh_stamp = [&](StoryId id) {
    const Story* story = stories_.FindStory(id);
    return story != nullptr && seen.insert(story->stamp()).second;
  };
  stories_.CreateStory(1);
  EXPECT_TRUE(fresh_stamp(1));
  stories_.AddSnippetToStory(a, 1);
  EXPECT_TRUE(fresh_stamp(1));
  stories_.AddSnippetToStory(b, 1);
  EXPECT_TRUE(fresh_stamp(1));
  stories_.CreateStory(2);
  EXPECT_TRUE(fresh_stamp(2));
  stories_.AddSnippetToStory(c, 2);
  EXPECT_TRUE(fresh_stamp(2));
  stories_.MergeStories({1, 2});
  EXPECT_TRUE(fresh_stamp(1));
  stories_.RemoveSnippet(c, store_);
  EXPECT_TRUE(fresh_stamp(1));

  // SplitStory re-creates its first component under the old id.
  next_story_id_ = 10;
  stories_.SplitStory(1, {{a.id}, {b.id}}, store_, &next_story_id_);
  EXPECT_TRUE(fresh_stamp(1));
  EXPECT_TRUE(fresh_stamp(10));
  // An emptied story is deleted; its id comes back with a new stamp.
  stories_.RemoveSnippet(b, store_);
  EXPECT_EQ(stories_.FindStory(10), nullptr);
  stories_.CreateStory(10);
  EXPECT_TRUE(fresh_stamp(10));

  // A frozen copy keeps every stamp, and later writes do not reach it.
  const StorySet frozen = stories_.Freeze();
  const uint64_t stamp = stories_.FindStory(1)->stamp();
  EXPECT_EQ(frozen.FindStory(1)->stamp(), stamp);
  EXPECT_EQ(frozen.FindStory(10)->stamp(), stories_.FindStory(10)->stamp());
  stories_.AddSnippetToStory(b, 1);
  EXPECT_TRUE(fresh_stamp(1));
  EXPECT_EQ(frozen.FindStory(1)->stamp(), stamp);
}

// After a Freeze(), adding a snippet to one story clones that story and
// the trie nodes on its path: every other story stays shared with the
// frozen partition, which still reads the old story.
TEST_F(IdentifierFixture, StorySetWriteAfterFreezeClonesOneStory) {
  constexpr StoryId kStories = 40;  // More than a trie node's 32 slots.
  for (StoryId id = 0; id < kStories; ++id) {
    stories_.CreateStory(id);
    stories_.AddSnippetToStory(Put(100 + static_cast<Timestamp>(id),
                                   {{0, 1.0}}, {}),
                               id);
  }
  const StorySet frozen = stories_.Freeze();
  const Snippet& extra = Put(500, {{1, 1.0}}, {});
  const uint64_t before = cow::ReadCopyCounters().copies;
  stories_.AddSnippetToStory(extra, 5);
  const uint64_t copies = cow::ReadCopyCounters().copies - before;

  for (StoryId id = 0; id < kStories; ++id) {
    if (id == 5) {
      EXPECT_NE(stories_.FindStory(id), frozen.FindStory(id));
    } else {
      EXPECT_EQ(stories_.FindStory(id), frozen.FindStory(id))
          << "story " << id;
    }
  }
  EXPECT_EQ(frozen.FindStory(5)->size(), 1u);
  EXPECT_EQ(stories_.FindStory(5)->size(), 2u);
  EXPECT_EQ(frozen.StoryOf(extra.id), kInvalidStoryId);
  EXPECT_EQ(frozen.snippet_times().size(), kStories);
  // The story, at most two trie nodes in each of the two maps, and the
  // temporal index's spine and run.
  EXPECT_LE(copies, 1u + 2u + 2u + 2u);
}

// ---------------------------- Identification -------------------------------

TEST_F(IdentifierFixture, FirstSnippetOpensStory) {
  StoryIdentifier identifier(&model_, IdentificationMode::kTemporal, {});
  const Snippet& a = Put(0, {{0, 1.0}}, {{5, 1.0}});
  StoryId s = Identify(identifier, a);
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(stories_.stories().size(), 1u);
}

TEST_F(IdentifierFixture, SimilarSnippetsJoinSameStory) {
  StoryIdentifier identifier(&model_, IdentificationMode::kTemporal, {});
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {6, 1.0}});
  const Snippet& b =
      Put(kSecondsPerDay, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {7, 1.0}});
  StoryId sa = Identify(identifier, a);
  StoryId sb = Identify(identifier, b);
  EXPECT_EQ(sa, sb);
}

TEST_F(IdentifierFixture, DissimilarSnippetsOpenSeparateStories) {
  StoryIdentifier identifier(&model_, IdentificationMode::kTemporal, {});
  const Snippet& a = Put(0, {{0, 1.0}}, {{5, 1.0}});
  const Snippet& b = Put(kSecondsPerDay, {{9, 1.0}}, {{8, 1.0}});
  EXPECT_NE(Identify(identifier, a), Identify(identifier, b));
  EXPECT_EQ(stories_.stories().size(), 2u);
}

TEST_F(IdentifierFixture, TemporalModeIgnoresSnippetsOutsideWindow) {
  IdentifierConfig config;
  config.window = 2 * kSecondsPerDay;
  StoryIdentifier identifier(&model_, IdentificationMode::kTemporal, config);
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  // Identical content, but 30 days later — outside the window.
  const Snippet& b = Put(30 * kSecondsPerDay, {{0, 1.0}, {1, 1.0}},
                         {{5, 1.0}});
  StoryId sa = Identify(identifier, a);
  StoryId sb = Identify(identifier, b);
  EXPECT_NE(sa, sb) << "temporal identification must not see stale snippets";
}

TEST_F(IdentifierFixture, CompleteModeSeesEverything) {
  StoryIdentifier identifier(&model_, IdentificationMode::kComplete, {});
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  const Snippet& b = Put(300 * kSecondsPerDay, {{0, 1.0}, {1, 1.0}},
                         {{5, 1.0}});
  StoryId sa = Identify(identifier, a);
  StoryId sb = Identify(identifier, b);
  EXPECT_EQ(sa, sb) << "complete identification compares against all";
}

TEST_F(IdentifierFixture, BridgingSnippetMergesStories) {
  // Two stories with distinct cores; a bridge snippet strongly matching
  // both must merge them (incremental story construction).
  SimilarityConfig sim;
  sim.merge_threshold = 0.40;
  SimilarityModel model(sim, nullptr);
  StoryIdentifier identifier(&model, IdentificationMode::kTemporal, {});

  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  const Snippet& b = Put(kSecondsPerDay, {{2, 1.0}, {3, 1.0}}, {{6, 1.0}});
  StoryId sa = identifier.Identify(a, &stories_, store_, &next_story_id_);
  StoryId sb = identifier.Identify(b, &stories_, store_, &next_story_id_);
  ASSERT_NE(sa, sb);
  // The bridge mentions all four entities and both keywords.
  const Snippet& bridge =
      Put(2 * kSecondsPerDay, {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}},
          {{5, 1.0}, {6, 1.0}});
  StoryId merged = identifier.Identify(bridge, &stories_, store_,
                                       &next_story_id_);
  EXPECT_EQ(stories_.stories().size(), 1u);
  EXPECT_EQ(stories_.StoryOf(a.id), merged);
  EXPECT_EQ(stories_.StoryOf(b.id), merged);
}

TEST_F(IdentifierFixture, ModeSelectsWindow) {
  // With the same config, complete mode links identical snippets across
  // any gap, temporal mode only inside its window.
  IdentifierConfig config;
  config.window = kSecondsPerDay;
  const StoryIdentifier complete(&model_, IdentificationMode::kComplete,
                                 config);
  const StoryIdentifier temporal(&model_, IdentificationMode::kTemporal,
                                 config);
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  const Snippet& b =
      Put(100 * kSecondsPerDay, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});

  StoryId ca = complete.Identify(a, &stories_, store_, &next_story_id_);
  StoryId cb = complete.Identify(b, &stories_, store_, &next_story_id_);
  EXPECT_EQ(ca, cb);

  StorySet fresh(0);
  StoryId ta = temporal.Identify(a, &fresh, store_, &next_story_id_);
  StoryId tb = temporal.Identify(b, &fresh, store_, &next_story_id_);
  EXPECT_NE(ta, tb);
}

// ------------------------- Kernel-skip oracle ------------------------------

/// identifier.cc's blend of member and centroid scores.
constexpr double kCentroidBlend = 0.3;

/// Identification as it was before the kernel skip and the merged
/// window: complete mode lists every snippet of the partition with
/// ForEach, temporal mode reads [t - w, t + w], and every candidate and
/// every candidate story is scored by both kernels. The real identifier
/// must place every snippet exactly where this one does.
class OracleIdentifier {
 public:
  OracleIdentifier(const SimilarityModel* model, IdentificationMode mode,
                   IdentifierConfig config)
      : model_(model), mode_(mode), config_(config) {}

  StoryId Identify(const Snippet& snippet, StorySet* stories,
                   const SnippetStore& store, StoryId* next_story_id) {
    std::vector<SnippetId> candidates;
    if (mode_ == IdentificationMode::kComplete) {
      stories->snippet_times().ForEach(
          [&candidates](Timestamp, SnippetId id) {
            candidates.push_back(id);
          });
    } else {
      const Timestamp lo = snippet.timestamp - config_.window;
      const Timestamp hi = snippet.timestamp + config_.window;
      candidates = stories->snippet_times().IdsInWindow(lo, hi);
    }
    return Place(snippet, candidates, stories, store, next_story_id);
  }

 private:
  StoryId Place(const Snippet& snippet,
                const std::vector<SnippetId>& candidates, StorySet* stories,
                const SnippetStore& store, StoryId* next_story_id) {
    const SimilarityConfig& sim = model_->config();
    std::unordered_map<StoryId, double> best_member;
    for (SnippetId cid : candidates) {
      if (cid == snippet.id) continue;
      StoryId story_id = stories->StoryOf(cid);
      if (story_id == kInvalidStoryId) continue;
      const Snippet* candidate = store.Find(cid);
      if (candidate == nullptr) continue;
      double s = model_->SnippetSimilarity(snippet, *candidate);
      auto [it, inserted] = best_member.emplace(story_id, s);
      if (!inserted && s > it->second) it->second = s;
    }
    StoryId best_story = kInvalidStoryId;
    double best_score = 0.0;
    std::vector<StoryId> merge_set;
    for (const auto& [story_id, member_score] : best_member) {
      const Story* story = stories->FindStory(story_id);
      double centroid_score = model_->SnippetStorySimilarity(snippet, *story);
      double score = (1.0 - kCentroidBlend) * member_score +
                     kCentroidBlend * centroid_score;
      if (score > best_score ||
          (score == best_score && story_id < best_story)) {
        best_score = score;
        best_story = story_id;
      }
      if (score >= sim.merge_threshold) merge_set.push_back(story_id);
    }
    if (best_story == kInvalidStoryId || best_score < sim.assign_threshold) {
      StoryId id = (*next_story_id)++;
      stories->CreateStory(id);
      stories->AddSnippetToStory(snippet, id);
      return id;
    }
    if (merge_set.size() >= 2) {
      std::vector<StoryId> ordered;
      ordered.push_back(best_story);
      for (StoryId id : merge_set) {
        if (id != best_story) ordered.push_back(id);
      }
      best_story = stories->MergeStories(ordered);
    }
    stories->AddSnippetToStory(snippet, best_story);
    return best_story;
  }

  const SimilarityModel* model_;
  IdentificationMode mode_;
  IdentifierConfig config_;
};

struct KernelSkipCase {
  bool news_prose;  // NewsProseEngineConfig thresholds, else defaults.
  IdentificationMode mode;
};

void PrintTo(const KernelSkipCase& c, std::ostream* os) {
  *os << (c.news_prose ? "news-prose" : "default") << " thresholds, "
      << (c.mode == IdentificationMode::kComplete ? "complete" : "temporal");
}

class KernelSkipOracle
    : public ::testing::TestWithParam<std::tuple<uint64_t, KernelSkipCase>> {
};

// Property: on a seeded stream of topical snippets (some share only
// keywords, some only entities, some nothing with their topic), the real
// identifier and the oracle count the same comparisons, put every snippet
// into the same story and leave every story with the same members and
// aggregates.
TEST_P(KernelSkipOracle, SameStoriesAsUnprunedPlacement) {
  const auto& [seed, c] = GetParam();
  const EngineConfig engine_config =
      c.news_prose ? NewsProseEngineConfig() : EngineConfig();
  const IdentifierConfig config = engine_config.identifier;
  text::DocumentFrequency df;
  SimilarityModel model(engine_config.similarity, &df);
  const StoryIdentifier real(&model, c.mode, config);
  OracleIdentifier oracle(&model, c.mode, config);

  Pcg32 rng(seed);
  SnippetStore store;
  StorySet real_stories(0), oracle_stories(0);
  StoryId real_next = 0, oracle_next = 0;
  constexpr int kSnippets = 360;
  constexpr uint32_t kTopics = 12;
  for (int k = 0; k < kSnippets; ++k) {
    const uint32_t topic = rng.NextBounded(kTopics);
    std::vector<text::TermVector::Entry> entities, keywords;
    const uint32_t shape = rng.NextBounded(8);
    if (shape != 0 && shape != 1) {  // Topical entities.
      for (int e = 0; e < 3; ++e) {
        entities.push_back({topic * 6 + rng.NextBounded(6),
                            1.0 + rng.NextBounded(3)});
      }
    }
    if (shape != 0 && shape != 2) {  // Topical keywords.
      for (int w = 0; w < 4; ++w) {
        keywords.push_back({topic * 10 + rng.NextBounded(10),
                            0.25 + 0.5 * rng.NextBounded(6)});
      }
    }
    // Noise terms shared across topics.
    entities.push_back({1000 + rng.NextBounded(40), 1.0});
    if (rng.NextBounded(2) == 0) {
      keywords.push_back({2000 + rng.NextBounded(200), 1.0});
    }
    Snippet s;
    s.source = 0;
    s.timestamp = (topic * 9 + rng.NextBounded(40)) * kSecondsPerDay +
                  rng.NextBounded(kSecondsPerDay);
    s.entities = text::TermVector::FromEntries(std::move(entities));
    s.keywords = text::TermVector::FromEntries(std::move(keywords));
    df.AddDocument(s.keywords);
    const SnippetId id = store.Insert(std::move(s)).value();
    const Snippet& stored = *store.Find(id);
    const uint64_t before = model.num_comparisons();
    const StoryId want =
        oracle.Identify(stored, &oracle_stories, store, &oracle_next);
    const uint64_t between = model.num_comparisons();
    const StoryId got =
        real.Identify(stored, &real_stories, store, &real_next);
    ASSERT_EQ(got, want) << "snippet " << k;
    // Skipped pairs still count: the comparison tally is the oracle's.
    ASSERT_EQ(model.num_comparisons() - between, between - before)
        << "snippet " << k;
  }
  EXPECT_EQ(real_next, oracle_next);
  ASSERT_EQ(real_stories.stories().size(), oracle_stories.stories().size());
  for (const auto& [id, box] : oracle_stories.stories()) {
    const Story& story = box.read();
    const Story* mine = real_stories.FindStory(id);
    ASSERT_NE(mine, nullptr) << "story " << id;
    EXPECT_EQ(mine->snippets(), story.snippets()) << "story " << id;
    EXPECT_EQ(mine->entities(), story.entities()) << "story " << id;
    EXPECT_EQ(mine->keywords(), story.keywords()) << "story " << id;
    EXPECT_EQ(mine->start_time(), story.start_time()) << "story " << id;
    EXPECT_EQ(mine->end_time(), story.end_time()) << "story " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, KernelSkipOracle,
    ::testing::Combine(
        ::testing::Values(7u, 8u, 9u),
        ::testing::Values(
            KernelSkipCase{false, IdentificationMode::kTemporal},
            KernelSkipCase{true, IdentificationMode::kTemporal},
            KernelSkipCase{false, IdentificationMode::kComplete},
            KernelSkipCase{true, IdentificationMode::kComplete})));

TEST_F(IdentifierFixture, CentroidAloneCanWinUnderNewsProseThresholds) {
  // A story whose only in-window member shares no term with the probe
  // still wins on its centroid once assign_threshold <= the centroid
  // blend (0.3): NewsProseEngineConfig sets 0.18. Candidates drawn from
  // the window's term postings would miss it, so the kernel skip keeps
  // every window story and skips only the kernels.
  const EngineConfig config = NewsProseEngineConfig();
  SimilarityModel model(config.similarity, nullptr);
  StoryIdentifier identifier(&model, IdentificationMode::kTemporal,
                             config.identifier);
  stories_.CreateStory(1);
  for (int day = 0; day < 9; ++day) {  // Out of the 45-day window.
    stories_.AddSnippetToStory(
        Put(day * kSecondsPerDay, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {6, 1.0}}),
        1);
  }
  const Snippet& in_window =
      Put(50 * kSecondsPerDay, {{20, 1.0}}, {{30, 1.0}});
  stories_.AddSnippetToStory(in_window, 1);
  next_story_id_ = 2;
  const Snippet& probe =
      Put(60 * kSecondsPerDay, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {6, 1.0}});
  EXPECT_EQ(identifier.Identify(probe, &stories_, store_, &next_story_id_),
            1u);
  EXPECT_EQ(stories_.stories().size(), 1u);

  // Under the default assign_threshold (0.30) the centroid alone is not
  // enough, and the probe opens a story of its own.
  StorySet fresh(0);
  fresh.CreateStory(1);
  for (SnippetId id : stories_.FindStory(1)->snippets()) {
    if (id != probe.id) fresh.AddSnippetToStory(*store_.Find(id), 1);
  }
  StoryIdentifier strict(&model_, IdentificationMode::kTemporal,
                         config.identifier);
  EXPECT_NE(strict.Identify(probe, &fresh, store_, &next_story_id_), 1u);
}

}  // namespace
}  // namespace storypivot
