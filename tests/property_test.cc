// Randomised invariant tests: drive an engine through long random
// sequences of mutations (ingest, document removal, snippet removal,
// source add/remove, align, refine) and verify after every phase that all
// internal structures agree with a from-first-principles recomputation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "util/logging.h"
#include "util/rng.h"

namespace storypivot {
namespace {

/// Checks every cross-structure invariant of an engine.
void CheckEngineInvariants(const StoryPivotEngine& engine) {
  size_t snippets_in_partitions = 0;
  for (const StorySet* partition : engine.partitions()) {
    // (1) Assignment maps and story membership agree; aggregates match a
    // recomputation from the member snippets.
    size_t snippets_in_stories = 0;
    for (const auto& [story_id, story] : partition->stories()) {
      ASSERT_FALSE(story.empty()) << "empty stories must be deleted";
      snippets_in_stories += story.size();

      text::TermVector entities, keywords;
      std::set<SourceId> sources;
      Timestamp begin = 0, end = 0;
      bool first = true;
      Timestamp prev_ts = 0;
      for (SnippetId sid : story.snippets()) {
        ASSERT_EQ(partition->StoryOf(sid), story_id);
        const Snippet* snippet = engine.store().Find(sid);
        ASSERT_NE(snippet, nullptr);
        ASSERT_EQ(snippet->source, partition->source());
        // (2) Story members are time-ordered.
        if (!first) {
          EXPECT_LE(prev_ts, snippet->timestamp);
        }
        prev_ts = snippet->timestamp;
        entities.Merge(snippet->entities);
        keywords.Merge(snippet->keywords);
        sources.insert(snippet->source);
        if (first) {
          begin = end = snippet->timestamp;
          first = false;
        } else {
          begin = std::min(begin, snippet->timestamp);
          end = std::max(end, snippet->timestamp);
        }
      }
      // (3) Incremental aggregates equal recomputed aggregates.
      EXPECT_TRUE(story.entities() == entities)
          << "story " << story_id << " entity aggregate drifted";
      EXPECT_TRUE(story.keywords() == keywords)
          << "story " << story_id << " keyword aggregate drifted";
      EXPECT_EQ(story.sources(), sources);
      EXPECT_EQ(story.start_time(), begin);
      EXPECT_EQ(story.end_time(), end);
    }
    // (4) The temporal index covers exactly the assigned snippets, each
    // at its own timestamp.
    EXPECT_EQ(partition->snippet_times().size(), snippets_in_stories);
    for (const auto& [ts, sid] : partition->snippet_times().entries()) {
      const Snippet* snippet = engine.store().Find(sid);
      ASSERT_NE(snippet, nullptr);
      EXPECT_EQ(snippet->timestamp, ts);
      EXPECT_NE(partition->StoryOf(sid), kInvalidStoryId);
    }
    snippets_in_partitions += snippets_in_stories;
  }
  // (5) Every stored snippet is assigned in exactly one partition.
  EXPECT_EQ(engine.store().size(), snippets_in_partitions);

  // (6) Document frequency equals the number of stored snippets (each
  // snippet contributes one "document").
  EXPECT_EQ(engine.document_frequency().num_documents(),
            static_cast<int64_t>(engine.store().size()));
}

/// Checks alignment-result invariants against the engine state.
void CheckAlignmentInvariants(const StoryPivotEngine& engine) {
  ASSERT_TRUE(engine.has_alignment());
  const AlignmentResult& alignment = engine.alignment();

  // (1) Integrated stories exactly partition the per-source stories.
  std::set<std::pair<SourceId, StoryId>> covered;
  for (const IntegratedStory& integrated : alignment.stories) {
    EXPECT_FALSE(integrated.members.empty());
    for (const auto& [source, story_id] : integrated.members) {
      EXPECT_TRUE(covered.insert({source, story_id}).second)
          << "story in two integrated stories";
      const StorySet* partition = engine.partition(source);
      ASSERT_NE(partition, nullptr);
      EXPECT_NE(partition->FindStory(story_id), nullptr);
    }
  }
  size_t total_stories = 0;
  for (const StorySet* partition : engine.partitions()) {
    for (const auto& [story_id, story] : partition->stories()) {
      EXPECT_TRUE(covered.contains({partition->source(), story_id}))
          << "story missing from alignment";
      ++total_stories;
    }
  }
  EXPECT_EQ(covered.size(), total_stories);

  // (2) integrated_of covers every snippet, consistently with members.
  EXPECT_EQ(alignment.integrated_of.size(), engine.store().size());
  for (const auto& [sid, index] : alignment.integrated_of) {
    ASSERT_LT(index, alignment.stories.size());
    EXPECT_TRUE(alignment.stories[index].merged.Contains(sid));
  }

  // (3) Roles exist for every snippet; counterparts are symmetric-ish:
  // a counterpart is in the same integrated story and a different source.
  EXPECT_EQ(alignment.roles.size(), engine.store().size());
  for (const auto& [sid, other] : alignment.counterpart) {
    const Snippet* a = engine.store().Find(sid);
    const Snippet* b = engine.store().Find(other);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a->source, b->source);
    EXPECT_EQ(alignment.integrated_of.at(sid),
              alignment.integrated_of.at(other));
    EXPECT_EQ(alignment.roles.at(sid), SnippetRole::kAligning);
  }
}

struct PropertyParam {
  uint64_t seed;
  IdentificationMode mode;
};

class EngineProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(EngineProperty, RandomOpSequencePreservesInvariants) {
  const PropertyParam& param = GetParam();
  datagen::CorpusConfig corpus_config;
  corpus_config.seed = param.seed;
  corpus_config.num_sources = 4;
  corpus_config.num_stories = 10;
  corpus_config.target_num_snippets = 600;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();

  EngineConfig config;
  config.mode = param.mode;
  StoryPivotEngine engine(config);
  SP_CHECK(engine
               .ImportVocabularies(*corpus.entity_vocabulary,
                                   *corpus.keyword_vocabulary)
               .ok());
  for (const SourceInfo& s : corpus.sources) engine.RegisterSource(s.name);

  Pcg32 rng(param.seed, /*stream=*/99);
  size_t next_snippet = 0;
  std::vector<SnippetId> live;

  for (int step = 0; step < 40; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.55 && next_snippet < corpus.snippets.size()) {
      // Ingest a burst.
      size_t burst = 5 + rng.NextBounded(25);
      for (size_t k = 0; k < burst && next_snippet < corpus.snippets.size();
           ++k) {
        Snippet copy = corpus.snippets[next_snippet++];
        copy.id = kInvalidSnippetId;
        live.push_back(engine.AddSnippet(std::move(copy)).value());
      }
    } else if (dice < 0.75 && !live.empty()) {
      // Remove random snippets (with split checks).
      size_t removals = 1 + rng.NextBounded(5);
      for (size_t k = 0; k < removals && !live.empty(); ++k) {
        size_t pick = rng.NextBounded(static_cast<uint32_t>(live.size()));
        SnippetId victim = live[pick];
        live.erase(live.begin() + pick);
        if (engine.store().Find(victim) != nullptr) {
          ASSERT_TRUE(engine.RemoveSnippet(victim).ok());
        }
      }
    } else if (dice < 0.85) {
      engine.Align();
      CheckAlignmentInvariants(engine);
    } else if (dice < 0.95) {
      engine.Refine();
      CheckAlignmentInvariants(engine);
    }
    if (step % 5 == 0) CheckEngineInvariants(engine);
  }
  CheckEngineInvariants(engine);
  engine.Align();
  CheckAlignmentInvariants(engine);
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, EngineProperty,
    ::testing::Values(
        PropertyParam{1, IdentificationMode::kTemporal},
        PropertyParam{2, IdentificationMode::kTemporal},
        PropertyParam{3, IdentificationMode::kTemporal},
        PropertyParam{4, IdentificationMode::kTemporal},
        PropertyParam{5, IdentificationMode::kComplete},
        PropertyParam{6, IdentificationMode::kComplete}));

}  // namespace
}  // namespace storypivot
