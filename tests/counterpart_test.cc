// The counterpart graph (core/counterpart_graph.h) against the scans it
// replaced. Roles and counterparts of every integrated story must equal
// ClassifyIntegratedStory's, the refiner's best counterparts must equal a
// global window scan, every cached kernel must give SimilarityModel's
// scores bit for bit, and the engine must never refine with a graph that
// an intervening snippet mutation made stale.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/aligner.h"
#include "core/counterpart_graph.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/corpus.h"
#include "model/time.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace storypivot {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The refiner's counterpart search before the graph: every cross-source
/// pair within the pair tolerance, walked in (timestamp, id) order, each
/// snippet keeping the first partner with a strictly higher score.
std::unordered_map<SnippetId, SnippetId> ReferenceCounterparts(
    const StoryPivotEngine& engine) {
  const double pair_threshold = engine.config().alignment.pair_threshold;
  std::vector<const Snippet*> all;
  for (const StorySet* partition : engine.partitions()) {
    partition->snippet_times().ForEach([&](Timestamp, SnippetId sid) {
      const Snippet* s = engine.store().Find(sid);
      SP_CHECK(s != nullptr);
      all.push_back(s);
    });
  }
  std::sort(all.begin(), all.end(), [](const Snippet* a, const Snippet* b) {
    return std::tie(a->timestamp, a->id) < std::tie(b->timestamp, b->id);
  });
  std::unordered_map<SnippetId, SnippetId> best_counterpart;
  std::unordered_map<SnippetId, double> best_score;
  for (size_t i = 0; i < all.size(); ++i) {
    const Snippet& a = *all[i];
    for (size_t j = i + 1; j < all.size(); ++j) {
      const Snippet& b = *all[j];
      if (b.timestamp - a.timestamp > kPairTolerance) break;
      if (a.source == b.source) continue;
      double s = engine.similarity().SnippetSimilarity(a, b);
      if (s < pair_threshold) continue;
      auto update = [&](const Snippet& x, const Snippet& y) {
        auto [it, inserted] = best_score.emplace(x.id, s);
        if (inserted || s > it->second) {
          it->second = s;
          best_counterpart[x.id] = y.id;
        }
      };
      update(a, b);
      update(b, a);
    }
  }
  return best_counterpart;
}

/// The graph's unrestricted best counterparts, by snippet id.
std::unordered_map<SnippetId, SnippetId> GraphCounterparts(
    const CounterpartGraph& graph) {
  std::unordered_map<SnippetId, SnippetId> out;
  const std::vector<uint32_t> best = graph.BestCounterparts();
  for (size_t p = 0; p < best.size(); ++p) {
    if (best[p] != CounterpartGraph::kNone) {
      out.emplace(graph.snippets()[p], graph.snippets()[best[p]]);
    }
  }
  return out;
}

/// Checks `engine`'s current alignment against the per-story and global
/// reference scans.
void ExpectMatchesReference(const StoryPivotEngine& engine) {
  const AlignmentResult& alignment = engine.alignment();
  ASSERT_NE(alignment.graph, nullptr);
  std::unordered_map<SnippetId, SnippetRole> roles;
  std::unordered_map<SnippetId, SnippetId> counterparts;
  for (const IntegratedStory& integrated : alignment.stories) {
    ClassifyIntegratedStory(engine.similarity(), engine.config().alignment,
                            engine.store(), integrated, &roles,
                            &counterparts);
  }
  EXPECT_EQ(alignment.roles, roles);
  EXPECT_EQ(alignment.counterpart, counterparts);
  EXPECT_EQ(GraphCounterparts(*alignment.graph),
            ReferenceCounterparts(engine));
}

/// A small GDELT-preset corpus: the preset's 50 sources and 500
/// entities, with its stories and span scaled down so a few hundred
/// snippets per month give the detect benchmark's density.
datagen::Corpus SmallGdeltCorpus(uint64_t seed) {
  datagen::CorpusConfig config = datagen::GdeltScalePreset();
  config.seed = seed;
  config.num_stories = 40;
  config.end_time = config.start_time + 30 * kSecondsPerDay;
  config.target_num_snippets = 600;
  return datagen::CorpusGenerator(config).Generate();
}

std::unique_ptr<StoryPivotEngine> IngestedEngine(
    const datagen::Corpus& corpus, size_t num_threads) {
  EngineConfig config;
  config.num_threads = num_threads;
  auto engine = std::make_unique<StoryPivotEngine>(config);
  SP_CHECK_OK(engine->ImportVocabularies(*corpus.entity_vocabulary,
                                         *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
  std::vector<Snippet> batch;
  for (const Snippet& snippet : corpus.snippets) {
    batch.push_back(snippet);
    if (batch.size() == 128) {
      SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
  return engine;
}

TEST(CounterpartGraphProperty, MatchesReferenceScansAt1And4Threads) {
  size_t edges = 0, moves = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    datagen::Corpus corpus = SmallGdeltCorpus(seed);
    uint64_t fingerprints[2] = {0, 0};
    for (size_t t = 0; t < 2; ++t) {
      auto engine = IngestedEngine(corpus, t == 0 ? 1 : 4);
      engine->Align();
      ExpectMatchesReference(*engine);
      edges += engine->alignment().graph->num_edges();
      moves += engine->Refine().snippets_moved;
      // The re-alignment that ends Refine() reused the graph over the
      // refined stories.
      ExpectMatchesReference(*engine);
      fingerprints[t] = EngineStateFingerprint(*engine);
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
  }
  // The property must exercise real counterparts and real relocations.
  EXPECT_GT(edges, 40u * 2 * 100);
  EXPECT_GT(moves, 0u);
}

TEST(CounterpartGraphTest, EdgeScoresAreSnippetSimilarityBitForBit) {
  datagen::Corpus corpus = SmallGdeltCorpus(3);
  auto engine = IngestedEngine(corpus, 1);
  const SimilarityModel models[] = {
      SimilarityModel({}, &engine->document_frequency()),
      SimilarityModel({}, nullptr)};
  for (const SimilarityModel& model : models) {
    auto graph = CounterpartGraph::Build(
        engine->partitions(), engine->store(), model,
        engine->config().alignment.pair_threshold,
        kPairTolerance, nullptr);
    const std::vector<SnippetId>& ids = graph->snippets();
    size_t edges = 0;
    graph->ForEachEdge([&](uint32_t i, uint32_t j, double score) {
      ASSERT_LT(i, j);
      const Snippet* a = engine->store().Find(ids[i]);
      const Snippet* b = engine->store().Find(ids[j]);
      ASSERT_TRUE(a != nullptr && b != nullptr);
      EXPECT_NE(a->source, b->source);
      EXPECT_EQ(Bits(score), Bits(model.SnippetSimilarity(*a, *b)));
      ++edges;
    });
    EXPECT_EQ(edges, graph->num_edges());
    EXPECT_GT(edges, 0u);
  }
}

TEST(CounterpartGraphTest, KeywordOnlyPairsAreEdges) {
  // Sharing keywords alone can pass a low pair threshold, so candidates
  // must come from keyword postings as well as entity postings.
  SnippetStore store;
  SimilarityModel model({}, nullptr);
  StorySet partitions[2] = {StorySet(0), StorySet(1)};
  auto put = [&](SourceId source, Timestamp ts,
                 std::vector<text::TermVector::Entry> entities,
                 std::vector<text::TermVector::Entry> keywords) {
    Snippet s;
    s.source = source;
    s.timestamp = ts;
    s.entities = text::TermVector::FromEntries(std::move(entities));
    s.keywords = text::TermVector::FromEntries(std::move(keywords));
    SnippetId id = store.Insert(std::move(s)).value();
    StorySet& partition = partitions[source];
    if (partition.FindStory(source) == nullptr) partition.CreateStory(source);
    partition.AddSnippetToStory(*store.Find(id), source);
    return id;
  };
  const SnippetId a = put(0, 0, {{1, 1.0}}, {{10, 1.0}, {11, 1.0}});
  const SnippetId b =
      put(1, kSecondsPerHour, {{2, 1.0}}, {{10, 1.0}, {11, 1.0}});
  put(1, 2 * kSecondsPerHour, {{3, 1.0}}, {{12, 1.0}});  // Shares nothing.
  auto graph = CounterpartGraph::Build({&partitions[0], &partitions[1]}, store,
                                       model, /*pair_threshold=*/0.25,
                                       3 * kSecondsPerDay, nullptr);
  EXPECT_EQ(graph->num_scored(), 1u);
  ASSERT_EQ(graph->num_edges(), 1u);
  EXPECT_EQ(GraphCounterparts(*graph),
            (std::unordered_map<SnippetId, SnippetId>{{a, b}, {b, a}}));
}

TEST(CounterpartGraphTest, BuildCountsEveryScoredCandidate) {
  datagen::Corpus corpus = SmallGdeltCorpus(5);
  auto engine = IngestedEngine(corpus, 1);
  ThreadPool four(4);
  uint64_t scored[2] = {0, 0};
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    const uint64_t before = engine->similarity().num_comparisons();
    auto graph = CounterpartGraph::Build(
        engine->partitions(), engine->store(), engine->similarity(),
        engine->config().alignment.pair_threshold,
        kPairTolerance, pool);
    EXPECT_EQ(engine->similarity().num_comparisons() - before,
              graph->num_scored());
    EXPECT_GT(graph->num_edges(), 0u);
    EXPECT_GT(graph->num_scored(), graph->num_edges());
    scored[pool == nullptr ? 0 : 1] = graph->num_scored();
  }
  EXPECT_EQ(scored[0], scored[1]);
}

text::TermVector RandomVector(Pcg32* rng, uint32_t vocabulary, int size) {
  std::vector<text::TermVector::Entry> entries;
  for (int k = 0; k < size; ++k) {
    entries.push_back({rng->NextBounded(vocabulary),
                       1.0 + static_cast<double>(rng->NextBounded(4))});
  }
  return text::TermVector::FromEntries(std::move(entries));
}

TEST(CachedKernelsTest, IdfTableCosineIsIdfCosineBitForBit) {
  Pcg32 rng(17);
  text::DocumentFrequency df;
  for (int d = 0; d < 200; ++d) df.AddDocument(RandomVector(&rng, 60, 8));
  const SimilarityModel models[] = {SimilarityModel({}, &df),
                                     SimilarityModel({}, nullptr)};
  for (const SimilarityModel& model : models) {
    const IdfTable idf(model);
    for (int k = 0; k < 500; ++k) {
      // Terms up to 80 include some DF never saw.
      text::TermVector a = RandomVector(&rng, 80, 1 + k % 12);
      text::TermVector b = RandomVector(&rng, 80, 1 + k % 7);
      EXPECT_EQ(Bits(idf.Cosine(a, idf.SquaredNorm(a), b, idf.SquaredNorm(b))),
                Bits(model.IdfCosine(a, b)));
    }
  }
}

TEST(CachedKernelsTest, StoryPairScoreIsUncachedBitForBit) {
  datagen::Corpus corpus = SmallGdeltCorpus(9);
  auto engine = IngestedEngine(corpus, 1);
  std::vector<const Story*> stories;
  for (const StorySet* partition : engine->partitions()) {
    for (const auto& [id, story] : partition->stories()) {
      stories.push_back(&story.read());
    }
  }
  ASSERT_GT(stories.size(), 50u);
  const SimilarityModel models[] = {
      SimilarityModel({}, &engine->document_frequency()),
      SimilarityModel({}, nullptr)};
  size_t positive = 0;
  for (const SimilarityModel& model : models) {
    const StoryAligner aligner(&model, {});
    const IdfTable idf(model);
    for (size_t i = 0; i < stories.size(); ++i) {
      const Story& a = *stories[i];
      const Story& b = *stories[(i * 7 + 3) % stories.size()];
      const double cached =
          aligner.StoryPairScore(a, idf.SquaredNorm(a.keywords()), b,
                                 idf.SquaredNorm(b.keywords()), idf);
      EXPECT_EQ(Bits(cached), Bits(aligner.StoryPairScore(a, b)));
      positive += cached > 0.0;
    }
  }
  EXPECT_GT(positive, 0u);
}

TEST(CachedKernelsTest, DisjointSupportsScoreExactlyPositiveZero) {
  text::DocumentFrequency df;
  Snippet a, b;
  a.entities = text::TermVector::FromEntries({{1, 2.0}, {4, 1.0}});
  a.keywords = text::TermVector::FromEntries({{10, 1.0}, {11, 3.0}});
  b.entities = text::TermVector::FromEntries({{2, 1.0}, {7, 5.0}});
  b.keywords = text::TermVector::FromEntries({{12, 1.0}});
  df.AddDocument(a.keywords);
  df.AddDocument(b.keywords);
  SimilarityModel model({}, &df);
  EXPECT_EQ(Bits(model.SnippetSimilarity(a, b)), Bits(0.0));
  EXPECT_EQ(Bits(model.SnippetSimilarity(b, a)), Bits(0.0));
}

/// One snippet mutation between an Align() and a Refine(): a graph kept
/// across it would be stale. Kind 2 is a failed batch, which leaves the
/// engine as it was.
class GraphLifetimeTest : public ::testing::TestWithParam<int> {
 protected:
  static void Mutate(StoryPivotEngine* engine, int op) {
    const Snippet* first = engine->store().Find(0);
    SP_CHECK(first != nullptr);
    if (op == 0) {
      // A same-content snippet from another source: new counterparts.
      Snippet copy = *first;
      copy.id = kInvalidSnippetId;
      copy.source = static_cast<SourceId>((first->source + 1) %
                                          engine->sources().size());
      SP_CHECK(engine->AddSnippet(std::move(copy)).ok());
    } else if (op == 1) {
      // Drop a snippet that has a counterpart.
      const std::unordered_map<SnippetId, SnippetId>& cps =
          engine->alignment().counterpart;
      SP_CHECK(!cps.empty());
      SnippetId victim = kInvalidSnippetId;
      for (const auto& [sid, other] : cps) victim = std::min(victim, sid);
      SP_CHECK_OK(engine->RemoveSnippet(victim));
    } else {
      // A batch that fails on a duplicate id and rolls back.
      std::vector<Snippet> batch(2, *first);
      batch[0].id = 900000;
      batch[1].id = 900000;
      SP_CHECK(!engine->AddSnippets(std::move(batch)).ok());
    }
  }
};

/// `kept` refines right after the mutation. `fresh` gets the same ops
/// but re-aligns explicitly after a real mutation, or never sees the
/// failed batch, so its Refine() starts from a graph built for the
/// current snippets. Both spend the same story ids.
TEST_P(GraphLifetimeTest, RefineAfterMutationMatchesFreshAlignment) {
  datagen::Corpus corpus = SmallGdeltCorpus(21);
  for (size_t threads : {1u, 4u}) {
    auto kept = IngestedEngine(corpus, threads);
    auto fresh = IngestedEngine(corpus, threads);
    kept->Align();
    fresh->Align();
    Mutate(kept.get(), GetParam());
    if (GetParam() != 2) {
      Mutate(fresh.get(), GetParam());
      fresh->Align();
    }
    const RefinementStats a = kept->Refine();
    const RefinementStats b = fresh->Refine();
    EXPECT_EQ(a.snippets_moved, b.snippets_moved);
    EXPECT_EQ(a.conflicts_examined, b.conflicts_examined);
    EXPECT_EQ(EngineStateFingerprint(*kept), EngineStateFingerprint(*fresh));
    EXPECT_EQ(kept->alignment().counterpart, fresh->alignment().counterpart);
    ExpectMatchesReference(*kept);
  }
}

std::string OpName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"AddSnippet", "RemoveSnippet",
                                       "FailedAddSnippets"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Ops, GraphLifetimeTest, ::testing::Values(0, 1, 2),
                         OpName);

}  // namespace
}  // namespace storypivot
