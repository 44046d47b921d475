#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/aligner.h"
#include "core/engine.h"
#include "core/refiner.h"
#include "core/story_set.h"
#include "datagen/corpus.h"
#include "sketch/band_keys.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "model/time.h"

namespace storypivot {
namespace {

/// Index of the integrated story that lists per-source story (source,
/// id) among its members, or SIZE_MAX.
size_t IntegratedStoryWith(const AlignmentResult& result, SourceId source,
                           StoryId id) {
  const std::pair<SourceId, StoryId> member{source, id};
  for (size_t i = 0; i < result.stories.size(); ++i) {
    const auto& members = result.stories[i].members;
    if (std::find(members.begin(), members.end(), member) != members.end()) {
      return i;
    }
  }
  return std::numeric_limits<size_t>::max();
}

/// Builds a two-source fixture mirroring the paper's running example:
/// story "X" (plane crash: entities {0,1}, keywords {5,6}) and story "Y"
/// (war-crimes inquiry: entities {8,9}, keywords {15,16}), both reported
/// by both sources.
class AlignmentFixture : public ::testing::Test {
 protected:
  AlignmentFixture() : s1_(0), s2_(1), model_({}, nullptr) {}

  const Snippet& Put(SourceId source, Timestamp ts,
                     std::vector<std::pair<text::TermId, double>> entities,
                     std::vector<std::pair<text::TermId, double>> keywords) {
    Snippet s;
    s.source = source;
    s.timestamp = ts;
    s.entities = text::TermVector::FromEntries(std::move(entities));
    s.keywords = text::TermVector::FromEntries(std::move(keywords));
    SnippetId id = store_.Insert(std::move(s)).value();
    return *store_.Find(id);
  }

  const Snippet& PutX(SourceId source, Timestamp ts) {
    return Put(source, ts, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}, {6, 1.0}});
  }
  const Snippet& PutY(SourceId source, Timestamp ts) {
    return Put(source, ts, {{8, 1.0}, {9, 1.0}}, {{15, 1.0}, {16, 1.0}});
  }

  StorySet& PartitionOf(SourceId source) { return source == 0 ? s1_ : s2_; }

  void Assign(const Snippet& snippet, StoryId story) {
    StorySet& partition = PartitionOf(snippet.source);
    if (partition.FindStory(story) == nullptr) partition.CreateStory(story);
    partition.AddSnippetToStory(snippet, story);
    next_story_id_ = std::max(next_story_id_, story + 1);
  }

  AlignmentResult Align(AlignmentConfig config = {}) {
    StoryAligner aligner(&model_, config);
    return aligner.Align({&s1_, &s2_}, store_, &next_story_id_);
  }

  SnippetStore store_;
  StorySet s1_;
  StorySet s2_;
  SimilarityModel model_;
  StoryId next_story_id_ = 0;
};

TEST_F(AlignmentFixture, MatchingStoriesAlignAcrossSources) {
  Assign(PutX(0, 0), 1);
  Assign(PutX(0, kSecondsPerDay), 1);
  Assign(PutX(1, 0), 2);
  Assign(PutX(1, 2 * kSecondsPerDay), 2);
  AlignmentResult result = Align();
  ASSERT_EQ(result.stories.size(), 1u);
  EXPECT_EQ(result.stories[0].members.size(), 2u);
  EXPECT_EQ(result.stories[0].merged.size(), 4u);
  EXPECT_EQ(result.stories[0].merged.sources().size(), 2u);
}

TEST_F(AlignmentFixture, DifferentStoriesStaySeparate) {
  Assign(PutX(0, 0), 1);
  Assign(PutY(1, 0), 2);
  AlignmentResult result = Align();
  EXPECT_EQ(result.stories.size(), 2u);
}

TEST_F(AlignmentFixture, SingletonStoriesSurviveAlignment) {
  // A story reported by only one source must still appear in the result
  // (§2.3: sports story among business sources).
  Assign(PutX(0, 0), 1);
  Assign(PutX(1, 0), 2);
  Assign(PutY(0, 0), 3);  // Only source 0 covers story Y.
  AlignmentResult result = Align();
  ASSERT_EQ(result.stories.size(), 2u);
  size_t y_index = IntegratedStoryWith(result, 0, 3);
  ASSERT_NE(y_index, std::numeric_limits<size_t>::max());
  EXPECT_EQ(result.stories[y_index].members.size(), 1u);
}

TEST_F(AlignmentFixture, TemporallyDistantStoriesDoNotAlign) {
  // Same content, but half a year apart: "It is highly unlikely that two
  // stories c1 and c2 are similar if c1 ends at ti and c2 starts at tj
  // with ti << tj" (§2.3).
  Assign(PutX(0, 0), 1);
  Assign(PutX(0, kSecondsPerDay), 1);
  Assign(PutX(1, 180 * kSecondsPerDay), 2);
  AlignmentResult result = Align();
  EXPECT_EQ(result.stories.size(), 2u);
}

TEST_F(AlignmentFixture, SameSourceStoriesNeverMerge) {
  Assign(PutX(0, 0), 1);
  Assign(PutX(0, kSecondsPerDay), 2);  // Same source, same content.
  AlignmentResult result = Align();
  EXPECT_EQ(result.stories.size(), 2u);
}

TEST_F(AlignmentFixture, CounterpartsMarkedAligning) {
  const Snippet& a = PutX(0, 0);
  const Snippet& b = PutX(1, kSecondsPerHour);  // Near-simultaneous.
  const Snippet& lonely = PutX(0, 40 * kSecondsPerDay);  // Enriching: far.
  Assign(a, 1);
  Assign(lonely, 1);
  Assign(b, 2);
  AlignmentResult result = Align();
  ASSERT_EQ(result.stories.size(), 1u);
  EXPECT_EQ(result.roles.at(a.id), SnippetRole::kAligning);
  EXPECT_EQ(result.roles.at(b.id), SnippetRole::kAligning);
  EXPECT_EQ(result.roles.at(lonely.id), SnippetRole::kEnriching);
  EXPECT_EQ(result.counterpart.at(a.id), b.id);
  EXPECT_EQ(result.counterpart.at(b.id), a.id);
}

TEST(CounterpartTieBreakTest, EqualTimestampsKeepTheLowestIdPartner) {
  // 18 snippets with one timestamp and identical content over 3 sources:
  // every cross-source pair scores the same, so each snippet's counterpart
  // is its lowest-id partner from another source. A sort by timestamp
  // alone may permute a run of 17 or more equal keys.
  SnippetStore store;
  SimilarityModel model({}, nullptr);
  StorySet partitions[3] = {StorySet(0), StorySet(1), StorySet(2)};
  IntegratedStory integrated;
  std::vector<const Snippet*> snippets;
  for (int k = 0; k < 18; ++k) {
    Snippet s;
    s.source = static_cast<SourceId>(k % 3);
    s.timestamp = kSecondsPerDay;
    s.entities = text::TermVector::FromEntries({{0, 1.0}, {1, 1.0}});
    s.keywords = text::TermVector::FromEntries({{5, 1.0}, {6, 1.0}});
    SnippetId id = store.Insert(std::move(s)).value();
    snippets.push_back(store.Find(id));
  }
  for (const Snippet* s : snippets) {
    StorySet& partition = partitions[s->source];
    if (partition.FindStory(s->source) == nullptr) {
      partition.CreateStory(s->source);
    }
    partition.AddSnippetToStory(*s, s->source);
  }
  for (StoryId story = 0; story < 3; ++story) {
    integrated.members.push_back({story, story});
    integrated.merged.MergeFrom(*partitions[story].FindStory(story));
  }
  std::unordered_map<SnippetId, SnippetId> expected;
  for (const Snippet* s : snippets) {
    for (const Snippet* other : snippets) {
      if (other->source != s->source) {
        expected.emplace(s->id, other->id);  // Ids ascend: first wins.
        break;
      }
    }
  }

  std::unordered_map<SnippetId, SnippetRole> roles;
  std::unordered_map<SnippetId, SnippetId> counterparts;
  ClassifyIntegratedStory(model, {}, store, integrated, &roles,
                          &counterparts);
  EXPECT_EQ(counterparts, expected);

  StoryAligner aligner(&model, {});
  StoryId next_story_id = 3;
  AlignmentResult aligned = aligner.Align(
      {&partitions[0], &partitions[1], &partitions[2]}, store,
      &next_story_id);
  ASSERT_EQ(aligned.stories.size(), 1u);
  EXPECT_EQ(aligned.counterpart, expected);
}

TEST_F(AlignmentFixture, IntegratedOfCoversEverySnippet) {
  const Snippet& a = PutX(0, 0);
  const Snippet& b = PutY(0, 0);
  const Snippet& c = PutX(1, 0);
  Assign(a, 1);
  Assign(b, 2);
  Assign(c, 3);
  AlignmentResult result = Align();
  EXPECT_EQ(result.integrated_of.size(), 3u);
  EXPECT_EQ(result.integrated_of.at(a.id), result.integrated_of.at(c.id));
  EXPECT_NE(result.integrated_of.at(a.id), result.integrated_of.at(b.id));
}

TEST(LshAlignmentTest, PartitionMatchesAllPairsOracle) {
  // 4 sources x 130 topics = 520 stories, above kLshMinStories. A topic's
  // stories share its own entities and keywords (the same sets, with
  // source-dependent counts) and overlap in time; topics share nothing.
  constexpr SourceId kSources = 4;
  constexpr int kTopics = 130;
  static_assert(kSources * kTopics > kLshMinStories);
  SnippetStore store;
  SimilarityModel model({}, nullptr);
  std::vector<StorySet> partitions;
  partitions.reserve(kSources);
  for (SourceId source = 0; source < kSources; ++source) {
    partitions.emplace_back(source);
  }
  struct Node {
    SourceId source;
    StoryId story;
  };
  std::vector<Node> nodes;
  StoryId next_story_id = 0;
  for (int topic = 0; topic < kTopics; ++topic) {
    const text::TermId term = static_cast<text::TermId>(3 * topic);
    for (SourceId source = 0; source < kSources; ++source) {
      const StoryId story = next_story_id++;
      partitions[source].CreateStory(story);
      nodes.push_back({source, story});
      for (int k = 0; k < 2; ++k) {
        Snippet s;
        s.source = source;
        s.timestamp = (topic % 20) * kSecondsPerDay +
                      (source + k) * kSecondsPerHour;
        const double count = 1.0 + (source + k) % 3;
        s.entities = text::TermVector::FromEntries(
            {{term, count}, {term + 1, 1.0}, {term + 2, 1.0}});
        s.keywords =
            text::TermVector::FromEntries({{term, 1.0}, {term + 1, count}});
        SnippetId id = store.Insert(std::move(s)).value();
        partitions[source].AddSnippetToStory(*store.Find(id), story);
      }
    }
  }
  std::vector<const StorySet*> views;
  for (const StorySet& partition : partitions) views.push_back(&partition);
  const StoryAligner aligner(&model, {});
  const AlignmentResult result = aligner.Align(views, store, &next_story_id);

  // LSH ran: far fewer pairs were scored than there are cross-source
  // story pairs.
  const uint64_t cross_source_pairs =
      uint64_t{kSources} * (kSources - 1) / 2 * kTopics * kTopics;
  EXPECT_LT(result.num_pairs_scored, cross_source_pairs / 10);

  // The oracle: union-find over every cross-source pair that the uncached
  // StoryPairScore puts at or above the threshold.
  std::vector<size_t> parent(nodes.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto story_of = [&](size_t i) -> const Story& {
    return *partitions[nodes[i].source].FindStory(nodes[i].story);
  };
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i].source == nodes[j].source) continue;
      if (aligner.StoryPairScore(story_of(i), story_of(j)) >=
          aligner.config().align_threshold) {
        parent[find(i)] = find(j);
      }
    }
  }
  std::map<size_t, std::vector<size_t>> oracle_members;
  for (size_t i = 0; i < nodes.size(); ++i) {
    oracle_members[find(i)].push_back(i);
  }
  ASSERT_EQ(oracle_members.size(), static_cast<size_t>(kTopics));

  // Each integrated story lies inside one oracle component...
  std::vector<std::vector<size_t>> lsh_partition(result.stories.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const size_t index =
        IntegratedStoryWith(result, nodes[i].source, nodes[i].story);
    ASSERT_LT(index, lsh_partition.size());
    lsh_partition[index].push_back(i);
  }
  for (const std::vector<size_t>& members : lsh_partition) {
    for (size_t i : members) EXPECT_EQ(find(i), find(members.front()));
  }
  // ...and on this well-separated input the two partitions are equal.
  std::vector<std::vector<size_t>> oracle_partition;
  for (auto& [root, members] : oracle_members) {
    oracle_partition.push_back(std::move(members));
  }
  std::sort(lsh_partition.begin(), lsh_partition.end());
  std::sort(oracle_partition.begin(), oracle_partition.end());
  EXPECT_EQ(lsh_partition, oracle_partition);
}

/// A seeded multi-source input above kLshMinStories: stories of one topic
/// share most of the topic's terms (so their band keys collide and they
/// align), stories draw noise terms too, and some stories are off-topic.
struct BandedInput {
  SnippetStore store;
  std::vector<StorySet> partitions;
  StoryId next_story_id = 0;

  std::vector<const StorySet*> views() const {
    std::vector<const StorySet*> out;
    for (const StorySet& partition : partitions) out.push_back(&partition);
    return out;
  }
};

std::unique_ptr<BandedInput> MakeBandedInput(uint64_t seed) {
  constexpr SourceId kSources = 4;
  constexpr int kStoriesPerSource = 160;
  constexpr uint32_t kTopics = 70;
  auto input = std::make_unique<BandedInput>();
  Pcg32 rng(seed);
  for (SourceId source = 0; source < kSources; ++source) {
    input->partitions.emplace_back(source);
  }
  for (SourceId source = 0; source < kSources; ++source) {
    StorySet& partition = input->partitions[source];
    for (int k = 0; k < kStoriesPerSource; ++k) {
      const StoryId story = input->next_story_id++;
      partition.CreateStory(story);
      const bool off_topic = rng.NextBounded(6) == 0;
      const uint32_t topic = rng.NextBounded(kTopics);
      const Timestamp base = (topic % 30) * 3 * kSecondsPerDay;
      const int members = 1 + static_cast<int>(rng.NextBounded(3));
      for (int m = 0; m < members; ++m) {
        std::vector<text::TermVector::Entry> entities, keywords;
        for (text::TermId t = 0; t < 4; ++t) {
          if (off_topic || rng.NextBounded(5) == 0) continue;
          entities.push_back({topic * 4 + t, 1.0 + rng.NextBounded(2)});
        }
        for (text::TermId t = 0; t < 6; ++t) {
          if (off_topic || rng.NextBounded(6) == 0) continue;
          keywords.push_back({topic * 6 + t, 1.0 + rng.NextBounded(3)});
        }
        entities.push_back({1000 + rng.NextBounded(300), 1.0});
        keywords.push_back({5000 + rng.NextBounded(900), 1.0});
        Snippet snippet;
        snippet.source = source;
        snippet.timestamp = base + rng.NextBounded(4 * kSecondsPerDay);
        snippet.entities = text::TermVector::FromEntries(std::move(entities));
        snippet.keywords = text::TermVector::FromEntries(std::move(keywords));
        const SnippetId id = input->store.Insert(std::move(snippet)).value();
        partition.AddSnippetToStory(*input->store.Find(id), story);
      }
    }
  }
  return input;
}

/// Order-free digest of the integrated partition: every integrated
/// story's sorted member list, folded in sorted order.
uint64_t PartitionDigest(const AlignmentResult& result) {
  std::vector<std::vector<std::pair<SourceId, StoryId>>> stories;
  for (const IntegratedStory& story : result.stories) {
    stories.push_back(story.members);
  }
  std::sort(stories.begin(), stories.end());
  uint64_t h = SplitMix64(stories.size());
  for (const auto& members : stories) {
    h = HashCombine(h, SplitMix64(members.size()));
    for (const auto& [source, story] : members) {
      h = HashCombine(h, SplitMix64((uint64_t{source} << 40) ^ story));
    }
  }
  return h;
}

// Property: above kLshMinStories, Align() scores exactly the cross-source
// story pairs that share a band bucket, at every thread count, and gives
// the numbers the MinHash signatures and LshIndex gave before flat
// banding replaced them.
class BandedAlignment : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BandedAlignment, ScoresExactlyTheBucketMates) {
  const uint64_t seed = GetParam();
  std::unique_ptr<BandedInput> input = MakeBandedInput(seed);
  SimilarityModel model({}, nullptr);
  const StoryAligner aligner(&model, {});

  // Test-local bucketing of the same band keys.
  struct Node {
    SourceId source;
    StoryId story;
  };
  std::vector<Node> nodes;
  std::vector<std::map<uint64_t, std::vector<size_t>>> buckets(kLshBands);
  for (const StorySet& partition : input->partitions) {
    for (const auto& [id, story] : partition.stories()) {
      uint64_t keys[kLshBands];
      StoryBandKeys(story.entities(), story.keywords(), keys);
      for (size_t b = 0; b < kLshBands; ++b) {
        buckets[b][keys[b]].push_back(nodes.size());
      }
      nodes.push_back({partition.source(), id});
    }
  }
  ASSERT_GT(nodes.size(), kLshMinStories);
  std::set<std::pair<size_t, size_t>> bucket_pairs;
  for (const auto& band : buckets) {
    for (const auto& [key, members] : band) {
      for (size_t x = 0; x < members.size(); ++x) {
        for (size_t y = x + 1; y < members.size(); ++y) {
          if (nodes[members[x]].source == nodes[members[y]].source) continue;
          bucket_pairs.insert({members[x], members[y]});
        }
      }
    }
  }

  // Values from the MinHash + LshIndex implementation, by seed.
  const std::map<uint64_t, std::pair<uint64_t, uint64_t>> recorded = {
      {41, {971, 0xad6ebe045086b8baULL}},
      {42, {921, 0xd1de7a26f4fff711ULL}},
      {43, {883, 0x7a0c02ad0790e5a9ULL}},
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    StoryId next_story_id = input->next_story_id;
    const AlignmentResult result =
        aligner.Align(input->views(), input->store, &next_story_id, &pool);
    EXPECT_EQ(result.num_pairs_scored, bucket_pairs.size())
        << threads << " threads";
    EXPECT_LT(result.stories.size(), nodes.size()) << "some stories align";
    EXPECT_EQ(result.num_pairs_scored, recorded.at(seed).first)
        << threads << " threads";
    EXPECT_EQ(PartitionDigest(result), recorded.at(seed).second)
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandedAlignment,
                         ::testing::Values(41u, 42u, 43u));

/// `a` and `b` agree in every field a fresh Align() defines: stories,
/// ids, members, merged aggregates (weights bit for bit), the snippet
/// index, roles, counterparts and the scored-pair count.
void ExpectSameAlignment(const AlignmentResult& a, const AlignmentResult& b) {
  ASSERT_EQ(a.stories.size(), b.stories.size());
  for (size_t s = 0; s < a.stories.size(); ++s) {
    const IntegratedStory& x = a.stories[s];
    const IntegratedStory& y = b.stories[s];
    EXPECT_EQ(x.id, y.id) << "story " << s;
    EXPECT_EQ(x.members, y.members) << "story " << s;
    EXPECT_EQ(x.merged.id(), y.merged.id());
    EXPECT_EQ(x.merged.snippets(), y.merged.snippets()) << "story " << s;
    EXPECT_EQ(x.merged.start_time(), y.merged.start_time());
    EXPECT_EQ(x.merged.end_time(), y.merged.end_time());
    EXPECT_EQ(x.merged.sources(), y.merged.sources());
    for (auto terms : {&Story::entities, &Story::keywords}) {
      const auto& p = (x.merged.*terms)().entries();
      const auto& q = (y.merged.*terms)().entries();
      ASSERT_EQ(p.size(), q.size()) << "story " << s;
      for (size_t k = 0; k < p.size(); ++k) {
        EXPECT_EQ(p[k].first, q[k].first);
        EXPECT_EQ(std::bit_cast<uint64_t>(p[k].second),
                  std::bit_cast<uint64_t>(q[k].second))
            << "story " << s << " term " << p[k].first;
      }
    }
  }
  EXPECT_EQ(a.integrated_of, b.integrated_of);
  EXPECT_EQ(a.roles, b.roles);
  EXPECT_EQ(a.counterpart, b.counterpart);
  EXPECT_EQ(a.num_pairs_scored, b.num_pairs_scored);
}

/// Every non-empty story of `partitions` as (source, id) -> stamp.
std::map<std::pair<SourceId, StoryId>, uint64_t> Stamps(
    const std::vector<const StorySet*>& partitions) {
  std::map<std::pair<SourceId, StoryId>, uint64_t> out;
  for (const StorySet* partition : partitions) {
    for (const auto& [id, story] : partition->stories()) {
      if (!story.empty()) out[{partition->source(), id}] = story.stamp();
    }
  }
  return out;
}

// Property: after Refine(), Align() given the result of the Align() before
// it, as the re-alignment in Refine() gets it, equals a fresh Align() over
// the same partitions from the same id base, in every field and in the
// comparisons it counts, at 1 and 4 threads, below and above
// kLshMinStories, over refinements that split, empty and create stories.
// The re-alignment's own record holds only the graph: a run given its
// result reuses no pair and equals a fresh run too.
TEST(AlignmentReuseProperty, RecordEqualsFreshAlignmentAfterRefine) {
  int modes[2] = {0, 0};  // Runs in all-pairs and in LSH mode.
  int splits = 0, created = 0, emptied = 0, taken_over = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (int snippets : {300, 1500}) {
      datagen::CorpusConfig config = datagen::GdeltScalePreset();
      config.seed = seed;
      config.num_stories = snippets / 15;
      config.end_time = config.start_time + 30 * kSecondsPerDay;
      config.target_num_snippets = snippets;
      const datagen::Corpus corpus =
          datagen::CorpusGenerator(config).Generate();
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", "
                                        << snippets << " snippets, "
                                        << threads << " threads");
        EngineConfig engine_config;
        engine_config.num_threads = threads;
        StoryPivotEngine engine(engine_config);
        SP_CHECK_OK(engine.ImportVocabularies(*corpus.entity_vocabulary,
                                              *corpus.keyword_vocabulary));
        for (const SourceInfo& s : corpus.sources) {
          engine.RegisterSource(s.name);
        }
        SP_CHECK_OK(engine.AddSnippets(corpus.snippets));
        engine.Align();
        const AlignmentResult first = engine.alignment();
        ASSERT_NE(first.record, nullptr);
        const auto before = Stamps(engine.partitions());
        const RefinementStats stats = engine.Refine();
        const auto after = Stamps(engine.partitions());
        ASSERT_NE(engine.alignment().record, nullptr);

        bool kept = false;
        for (const auto& [key, stamp] : before) {
          auto it = after.find(key);
          if (it == after.end()) {
            ++emptied;
          } else {
            kept = kept || it->second == stamp;
          }
        }
        splits += stats.stories_split;
        created += stats.stories_created;
        const bool lsh = after.size() > kLshMinStories;
        ++modes[lsh ? 1 : 0];

        const StoryAligner aligner(&engine.similarity(),
                                   engine.config().alignment);
        ThreadPool pool(threads);
        StoryId with_base = 1u << 30;
        StoryId fresh_base = 1u << 30;
        const uint64_t c0 = engine.similarity().num_comparisons();
        // The merged views of `previous`, to see which the run takes over.
        AlignmentResult previous = first;
        std::set<const SnippetId*> views;
        for (const IntegratedStory& story : previous.stories) {
          views.insert(story.merged.snippets().data());
        }
        const AlignmentResult with_record =
            aligner.Align(engine.partitions(), engine.store(), &with_base,
                          &pool, std::move(previous));
        for (const IntegratedStory& story : with_record.stories) {
          taken_over += views.contains(story.merged.snippets().data());
        }
        const uint64_t c1 = engine.similarity().num_comparisons();
        const AlignmentResult fresh = aligner.Align(
            engine.partitions(), engine.store(), &fresh_base, &pool);
        const uint64_t c2 = engine.similarity().num_comparisons();
        ExpectSameAlignment(with_record, fresh);
        EXPECT_EQ(with_base, fresh_base);
        // The fresh run also built a counterpart graph; the run given the
        // first result used its record's.
        EXPECT_EQ(c1 - c0, c2 - c1 - fresh.graph->num_scored());
        if (kept && (before.size() > kLshMinStories) == lsh) {
          EXPECT_GT(with_record.num_pairs_reused, 0u);
        }
        EXPECT_LE(with_record.num_pairs_reused, with_record.num_pairs_scored);
        EXPECT_EQ(fresh.num_pairs_reused, 0u);

        StoryId again_base = 1u << 30;
        const AlignmentResult again =
            aligner.Align(engine.partitions(), engine.store(), &again_base,
                          &pool, engine.alignment());
        ExpectSameAlignment(again, fresh);
        EXPECT_EQ(again.num_pairs_reused, 0u);
      }
    }
  }
  EXPECT_GT(modes[0], 0);
  EXPECT_GT(modes[1], 0);
  EXPECT_GT(splits, 0);
  EXPECT_GT(created, 0);
  EXPECT_GT(emptied, 0);
  EXPECT_GT(taken_over, 0);
}

// A record made with the other candidate generator is not reused: story
// merges take a 640-story input below kLshMinStories and splits take it
// back above, over the same snippets, and each Align() given the previous
// run's result equals a fresh one.
TEST(AlignmentReuseProperty, NoReuseAcrossTheLshBoundary) {
  std::unique_ptr<BandedInput> input = MakeBandedInput(41);
  SimilarityModel model({}, nullptr);
  const StoryAligner aligner(&model, {});
  ThreadPool pool(4);
  StoryId next_story_id = input->next_story_id;
  const AlignmentResult lsh_run =
      aligner.Align(input->views(), input->store, &next_story_id, &pool);
  ASSERT_GT(Stamps(input->views()).size(), kLshMinStories);

  // Merge story pairs until the input is below the boundary, keeping
  // each merge's parts for the splits.
  using Parts = std::vector<std::vector<SnippetId>>;
  std::vector<std::tuple<SourceId, StoryId, Parts>> merges;
  size_t stories = Stamps(input->views()).size();
  for (StorySet& partition : input->partitions) {
    std::vector<StoryId> ids;
    for (const auto& [id, story] : partition.stories()) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (size_t k = 0; k + 1 < ids.size() && stories > kLshMinStories - 20;
         k += 2, --stories) {
      Parts parts;
      for (StoryId id : {ids[k], ids[k + 1]}) {
        parts.push_back(partition.FindStory(id)->snippets());
      }
      partition.MergeStories({ids[k], ids[k + 1]});
      merges.emplace_back(partition.source(), ids[k], std::move(parts));
    }
  }
  ASSERT_LE(Stamps(input->views()).size(), kLshMinStories);
  StoryId with_base = next_story_id, fresh_base = next_story_id;
  const AlignmentResult below = aligner.Align(
      input->views(), input->store, &with_base, &pool, lsh_run);
  const AlignmentResult below_fresh =
      aligner.Align(input->views(), input->store, &fresh_base, &pool);
  ExpectSameAlignment(below, below_fresh);
  EXPECT_EQ(below.num_pairs_reused, 0u);

  StoryId split_id = 1u << 20;
  for (const auto& [source, id, parts] : merges) {
    input->partitions[source].SplitStory(id, parts, input->store, &split_id);
  }
  ASSERT_GT(Stamps(input->views()).size(), kLshMinStories);
  with_base = fresh_base = next_story_id;
  const AlignmentResult above = aligner.Align(
      input->views(), input->store, &with_base, &pool, below_fresh);
  const AlignmentResult above_fresh =
      aligner.Align(input->views(), input->store, &fresh_base, &pool);
  ExpectSameAlignment(above, above_fresh);
  EXPECT_EQ(above.num_pairs_reused, 0u);
}

// Property: raising the alignment threshold can only produce more (or the
// same number of) integrated stories — union-find over fewer edges.
class AlignmentThresholdMonotonicity
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlignmentThresholdMonotonicity, ClusterCountNonDecreasing) {
  SnippetStore store;
  StorySet s1(0), s2(1);
  SimilarityModel model({}, nullptr);
  StoryId next_story_id = 0;
  Pcg32 rng(GetParam());

  // Random stories across two sources with overlapping vocabulary.
  for (int i = 0; i < 24; ++i) {
    SourceId source = rng.NextBounded(2);
    StorySet& partition = source == 0 ? s1 : s2;
    StoryId story_id = next_story_id++;
    partition.CreateStory(story_id);
    int members = 1 + rng.NextBounded(3);
    Timestamp base = rng.NextInRange(0, 60) * kSecondsPerDay;
    for (int m = 0; m < members; ++m) {
      Snippet snippet;
      snippet.source = source;
      snippet.timestamp = base + m * kSecondsPerDay;
      std::vector<text::TermVector::Entry> ents, kws;
      for (int k = 0; k < 3; ++k) {
        ents.push_back({rng.NextBounded(12), 1.0});
        kws.push_back({rng.NextBounded(20), 1.0});
      }
      snippet.entities = text::TermVector::FromEntries(std::move(ents));
      snippet.keywords = text::TermVector::FromEntries(std::move(kws));
      SnippetId id = store.Insert(std::move(snippet)).value();
      partition.AddSnippetToStory(*store.Find(id), story_id);
    }
  }

  size_t previous = 0;
  bool first = true;
  for (double threshold : {0.05, 0.15, 0.25, 0.35, 0.5, 0.7, 0.9}) {
    AlignmentConfig config;
    config.align_threshold = threshold;
    StoryAligner aligner(&model, config);
    AlignmentResult result =
        aligner.Align({&s1, &s2}, store, &next_story_id);
    if (!first) {
      EXPECT_GE(result.stories.size(), previous)
          << "threshold " << threshold;
    }
    previous = result.stories.size();
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignmentThresholdMonotonicity,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --------------------------------- Refiner ---------------------------------

TEST_F(AlignmentFixture, RefinerRecoversFig1Misassignment) {
  // Reproduce Fig. 1: s1's story c1 wrongly contains a Y-content snippet
  // (v4); its counterpart in s2 sits in the Y story, which aligns with
  // s1's own Y story c3. Refinement must move v4 from c1 to c3.
  const Snippet& x1 = PutX(0, 0);
  const Snippet& x2 = PutX(0, kSecondsPerDay);
  const Snippet& v4 = PutY(0, kSecondsPerDay + kSecondsPerHour);  // Wrong.
  Assign(x1, 1);
  Assign(x2, 1);
  Assign(v4, 1);  // Misassigned into the X story.

  const Snippet& y1 = PutY(0, kSecondsPerDay);
  Assign(y1, 3);  // s1's own Y story.

  Assign(PutX(1, 0), 5);
  const Snippet& y_cp = PutY(1, kSecondsPerDay + 2 * kSecondsPerHour);
  Assign(y_cp, 6);
  Assign(PutY(1, 2 * kSecondsPerDay), 6);

  AlignmentResult alignment = Align();
  // Sanity: v4's counterpart is in a different integrated story.
  ASSERT_TRUE(alignment.integrated_of.contains(v4.id));

  StoryRefiner refiner(&model_);
  std::vector<StorySet*> partitions = {&s1_, &s2_};
  RefinementStats stats =
      refiner.Refine(partitions, alignment, store_, &next_story_id_);
  EXPECT_GE(stats.snippets_moved, 1);
  EXPECT_EQ(s1_.StoryOf(v4.id), 3u) << "v4 must move to s1's Y story";
  EXPECT_EQ(s1_.StoryOf(x1.id), 1u) << "correct snippets stay";
  EXPECT_EQ(s1_.FindStory(1)->size(), 2u);
  EXPECT_EQ(s1_.FindStory(3)->size(), 2u);
}

TEST_F(AlignmentFixture, RefinerLeavesConsistentAssignmentsAlone) {
  const Snippet& x1 = PutX(0, 0);
  const Snippet& x2 = PutX(1, kSecondsPerHour);
  Assign(x1, 1);
  Assign(x2, 2);
  AlignmentResult alignment = Align();
  StoryRefiner refiner(&model_);
  std::vector<StorySet*> partitions = {&s1_, &s2_};
  RefinementStats stats =
      refiner.Refine(partitions, alignment, store_, &next_story_id_);
  EXPECT_EQ(stats.snippets_moved, 0);
  EXPECT_EQ(s1_.StoryOf(x1.id), 1u);
  EXPECT_EQ(s2_.StoryOf(x2.id), 2u);
}

TEST_F(AlignmentFixture, SplitIfDisconnectedSplitsBrokenStory) {
  // One story holding two content islands 60 days apart.
  const Snippet& a1 = PutX(0, 0);
  const Snippet& a2 = PutX(0, kSecondsPerDay);
  const Snippet& b1 = PutY(0, 60 * kSecondsPerDay);
  const Snippet& b2 = PutY(0, 61 * kSecondsPerDay);
  Assign(a1, 1);
  Assign(a2, 1);
  Assign(b1, 1);
  Assign(b2, 1);
  StoryRefiner refiner(&model_);
  int created =
      refiner.SplitIfDisconnected(&s1_, 1, store_, &next_story_id_);
  EXPECT_EQ(created, 1);
  EXPECT_EQ(s1_.stories().size(), 2u);
  EXPECT_EQ(s1_.StoryOf(a1.id), s1_.StoryOf(a2.id));
  EXPECT_EQ(s1_.StoryOf(b1.id), s1_.StoryOf(b2.id));
  EXPECT_NE(s1_.StoryOf(a1.id), s1_.StoryOf(b1.id));
}

TEST_F(AlignmentFixture, SplitKeepsConnectedStoryIntact) {
  const Snippet& a1 = PutX(0, 0);
  const Snippet& a2 = PutX(0, kSecondsPerDay);
  Assign(a1, 1);
  Assign(a2, 1);
  StoryRefiner refiner(&model_);
  EXPECT_EQ(refiner.SplitIfDisconnected(&s1_, 1, store_, &next_story_id_),
            0);
  EXPECT_EQ(s1_.stories().size(), 1u);
}

}  // namespace
}  // namespace storypivot
