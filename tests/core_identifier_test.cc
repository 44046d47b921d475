#include <gtest/gtest.h>

#include <memory>

#include "core/identifier.h"
#include "core/story_set.h"
#include "model/time.h"

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

  StoryId Identify(StoryIdentifier& identifier, const Snippet& snippet) {
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
  EXPECT_EQ(stories_.entity_index().num_postings(), 0u);
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

TEST_F(IdentifierFixture, StoriesInWindow) {
  const Snippet& a = Put(100, {{0, 1.0}}, {});
  const Snippet& b = Put(500, {{1, 1.0}}, {});
  stories_.CreateStory(1);
  stories_.CreateStory(2);
  stories_.AddSnippetToStory(a, 1);
  stories_.AddSnippetToStory(b, 2);
  EXPECT_EQ(stories_.StoriesInWindow(0, 200), (std::vector<StoryId>{1}));
  EXPECT_EQ(stories_.StoriesInWindow(0, 600), (std::vector<StoryId>{1, 2}));
  EXPECT_TRUE(stories_.StoriesInWindow(201, 499).empty());
}

// ---------------------------- Identification -------------------------------

TEST_F(IdentifierFixture, FirstSnippetOpensStory) {
  TemporalIdentifier identifier(&model_, {});
  const Snippet& a = Put(0, {{0, 1.0}}, {{5, 1.0}});
  StoryId s = Identify(identifier, a);
  EXPECT_EQ(s, 0u);
  EXPECT_EQ(stories_.stories().size(), 1u);
}

TEST_F(IdentifierFixture, SimilarSnippetsJoinSameStory) {
  TemporalIdentifier identifier(&model_, {});
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {6, 1.0}});
  const Snippet& b =
      Put(kSecondsPerDay, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {7, 1.0}});
  StoryId sa = Identify(identifier, a);
  StoryId sb = Identify(identifier, b);
  EXPECT_EQ(sa, sb);
}

TEST_F(IdentifierFixture, DissimilarSnippetsOpenSeparateStories) {
  TemporalIdentifier identifier(&model_, {});
  const Snippet& a = Put(0, {{0, 1.0}}, {{5, 1.0}});
  const Snippet& b = Put(kSecondsPerDay, {{9, 1.0}}, {{8, 1.0}});
  EXPECT_NE(Identify(identifier, a), Identify(identifier, b));
  EXPECT_EQ(stories_.stories().size(), 2u);
}

TEST_F(IdentifierFixture, TemporalModeIgnoresSnippetsOutsideWindow) {
  IdentifierConfig config;
  config.window = 2 * kSecondsPerDay;
  TemporalIdentifier identifier(&model_, config);
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  // Identical content, but 30 days later — outside the window.
  const Snippet& b = Put(30 * kSecondsPerDay, {{0, 1.0}, {1, 1.0}},
                         {{5, 1.0}});
  StoryId sa = Identify(identifier, a);
  StoryId sb = Identify(identifier, b);
  EXPECT_NE(sa, sb) << "temporal identification must not see stale snippets";
}

TEST_F(IdentifierFixture, CompleteModeSeesEverything) {
  CompleteIdentifier identifier(&model_, {});
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
  TemporalIdentifier identifier(&model, {});

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

TEST_F(IdentifierFixture, EntityPruningFindsSameStories) {
  IdentifierConfig pruned;
  pruned.prune_with_entities = true;
  TemporalIdentifier identifier(&model_, pruned);
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  const Snippet& b = Put(kSecondsPerDay, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  EXPECT_EQ(Identify(identifier, a), Identify(identifier, b));
}

TEST_F(IdentifierFixture, FactorySelectsMode) {
  // Behavioural check (RTTI is disabled): the complete identifier links
  // identical snippets across any gap, the temporal one does not.
  IdentifierConfig config;
  config.window = kSecondsPerDay;
  auto complete =
      MakeIdentifier(IdentificationMode::kComplete, &model_, config);
  auto temporal =
      MakeIdentifier(IdentificationMode::kTemporal, &model_, config);
  const Snippet& a = Put(0, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  const Snippet& b =
      Put(100 * kSecondsPerDay, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});

  StoryId ca = complete->Identify(a, &stories_, store_, &next_story_id_);
  StoryId cb = complete->Identify(b, &stories_, store_, &next_story_id_);
  EXPECT_EQ(ca, cb);

  StorySet fresh(0);
  StoryId ta = temporal->Identify(a, &fresh, store_, &next_story_id_);
  StoryId tb = temporal->Identify(b, &fresh, store_, &next_story_id_);
  EXPECT_NE(ta, tb);
}

}  // namespace
}  // namespace storypivot
