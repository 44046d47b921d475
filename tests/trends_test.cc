#include <gtest/gtest.h>

#include "core/trends.h"
#include "datagen/corpus.h"
#include "util/logging.h"

namespace storypivot {
namespace {

class TrendsFixture : public ::testing::Test {
 protected:
  TrendsFixture() { src_ = engine_.RegisterSource("s"); }

  /// Adds a snippet with fixed content (one story) at `ts`.
  SnippetId Add(Timestamp ts, text::TermId entity = 1) {
    Snippet s;
    s.source = src_;
    s.timestamp = ts;
    s.entities = text::TermVector::FromEntries({{entity, 1.0},
                                                {entity + 1, 1.0}});
    s.keywords = text::TermVector::FromEntries({{entity, 1.0}});
    return engine_.AddSnippet(std::move(s)).value();
  }

  StoryPivotEngine engine_;
  SourceId src_ = 0;
};

TEST_F(TrendsFixture, ActivitySeriesBucketsByDay) {
  Timestamp day0 = MakeTimestamp(2014, 7, 17);
  Add(day0 + 2 * kSecondsPerHour);
  Add(day0 + 20 * kSecondsPerHour);
  Add(day0 + kSecondsPerDay + kSecondsPerHour);
  Add(day0 + 3 * kSecondsPerDay);
  const StorySet* partition = engine_.partition(src_);
  ASSERT_EQ(partition->stories().size(), 1u);
  const Story& story = partition->stories().begin()->second;
  ActivitySeries series = BuildActivitySeries(engine_, story);
  ASSERT_EQ(series.counts.size(), 4u);
  EXPECT_EQ(series.counts[0], 2);
  EXPECT_EQ(series.counts[1], 1);
  EXPECT_EQ(series.counts[2], 0);
  EXPECT_EQ(series.counts[3], 1);
  EXPECT_EQ(series.Total(), 4);
  EXPECT_EQ(series.CountAt(day0 + kSecondsPerHour), 2);
  EXPECT_EQ(series.CountAt(day0 - kSecondsPerDay), 0);
  EXPECT_EQ(series.CountAt(day0 + 30 * kSecondsPerDay), 0);
}

TEST_F(TrendsFixture, ActivitySeriesEmptyStory) {
  Story empty(1);
  ActivitySeries series = BuildActivitySeries(engine_, empty);
  EXPECT_TRUE(series.counts.empty());
  EXPECT_EQ(series.Total(), 0);
}

TEST_F(TrendsFixture, BurstingStoryDetected) {
  Timestamp start = MakeTimestamp(2014, 6, 1);
  // Slow burn: one snippet every 5 days for 40 days.
  for (int d = 0; d <= 40; d += 5) Add(start + d * kSecondsPerDay);
  // Burst: five snippets in the last 3 days.
  Timestamp now = start + 46 * kSecondsPerDay;
  for (int k = 0; k < 5; ++k) {
    Add(now - k * 12 * kSecondsPerHour);
  }
  engine_.Align();
  std::vector<TrendingStory> trending =
      DetectTrendingStories(engine_, now);
  ASSERT_EQ(trending.size(), 1u);
  EXPECT_GE(trending[0].recent_count, 5);
  EXPECT_GE(trending[0].burst_ratio, 2.0);
  EXPECT_FALSE(trending[0].emerging);
}

TEST_F(TrendsFixture, SteadyStoryNotTrending) {
  Timestamp start = MakeTimestamp(2014, 6, 1);
  // Perfectly steady story: one snippet per day for 30 days.
  for (int d = 0; d < 30; ++d) Add(start + d * kSecondsPerDay);
  engine_.Align();
  std::vector<TrendingStory> trending = DetectTrendingStories(
      engine_, start + 29 * kSecondsPerDay);
  EXPECT_TRUE(trending.empty());
}

TEST_F(TrendsFixture, EmergingStoryFlagged) {
  Timestamp now = MakeTimestamp(2014, 8, 1);
  // Brand-new story entirely inside the recent window.
  for (int k = 0; k < 4; ++k) Add(now - k * kSecondsPerDay);
  engine_.Align();
  std::vector<TrendingStory> trending = DetectTrendingStories(engine_, now);
  ASSERT_EQ(trending.size(), 1u);
  EXPECT_TRUE(trending[0].emerging);
  EXPECT_EQ(trending[0].burst_ratio, 1000.0);
}

TEST_F(TrendsFixture, TrendingNeedsThreeRecentSnippets) {
  Timestamp now = MakeTimestamp(2014, 8, 1);
  Add(now);
  Add(now - kSecondsPerDay);
  engine_.Align();
  EXPECT_TRUE(DetectTrendingStories(engine_, now).empty());
  Add(now - 2 * kSecondsPerDay);
  engine_.Align();
  EXPECT_EQ(DetectTrendingStories(engine_, now).size(), 1u);
}

TEST_F(TrendsFixture, FutureSnippetsIgnored) {
  Timestamp now = MakeTimestamp(2014, 8, 1);
  for (int k = 0; k < 4; ++k) Add(now - k * kSecondsPerDay);
  // Snippets "after now" (late-arriving events dated in the future of the
  // evaluation point) must not count.
  for (int k = 1; k <= 3; ++k) Add(now + k * kSecondsPerDay);
  engine_.Align();
  std::vector<TrendingStory> trending = DetectTrendingStories(engine_, now);
  ASSERT_EQ(trending.size(), 1u);
  EXPECT_EQ(trending[0].recent_count, 4);
}

TEST(TrendsCorpusTest, RankingIsDeterministicAndOrdered) {
  datagen::CorpusConfig config;
  config.seed = 33;
  config.num_sources = 5;
  config.num_stories = 15;
  config.target_num_snippets = 1500;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  StoryPivotEngine engine;
  SP_CHECK(engine
               .ImportVocabularies(*corpus.entity_vocabulary,
                                   *corpus.keyword_vocabulary)
               .ok());
  for (const SourceInfo& s : corpus.sources) engine.RegisterSource(s.name);
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
  }
  engine.Align();
  Timestamp now = config.end_time - 30 * kSecondsPerDay;
  std::vector<TrendingStory> a = DetectTrendingStories(engine, now);
  std::vector<TrendingStory> b = DetectTrendingStories(engine, now);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].story, b[i].story);
    if (i > 0) {
      EXPECT_GE(a[i - 1].burst_ratio, a[i].burst_ratio);
    }
  }
}

}  // namespace
}  // namespace storypivot
