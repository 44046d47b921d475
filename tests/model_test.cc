#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "model/document.h"
#include "model/snippet.h"
#include "model/story.h"
#include "model/time.h"
#include "util/rng.h"

namespace storypivot {
namespace {

// ---------------------------------- Time -----------------------------------

TEST(TimeTest, EpochIsZero) {
  EXPECT_EQ(MakeTimestamp(1970, 1, 1), 0);
  CivilDate c = CivilFromTimestamp(0);
  EXPECT_EQ(c, (CivilDate{1970, 1, 1}));
}

TEST(TimeTest, KnownDates) {
  // The MH17 crash date used throughout the paper.
  Timestamp mh17 = MakeTimestamp(2014, 7, 17);
  EXPECT_EQ(FormatDate(mh17), "2014-07-17");
  EXPECT_EQ(MakeTimestamp(2014, 7, 18) - mh17, kSecondsPerDay);
}

TEST(TimeTest, HourMinuteSecondOffsets) {
  Timestamp ts = MakeTimestamp(2014, 7, 17, 16, 20, 5);
  EXPECT_EQ(ts, MakeTimestamp(2014, 7, 17) + 16 * 3600 + 20 * 60 + 5);
  EXPECT_EQ(FormatDateTime(ts), "2014-07-17 16:20");
}

TEST(TimeTest, LeapYearHandling) {
  EXPECT_EQ(MakeTimestamp(2012, 3, 1) - MakeTimestamp(2012, 2, 28),
            2 * kSecondsPerDay);  // 2012 is a leap year.
  EXPECT_EQ(MakeTimestamp(2014, 3, 1) - MakeTimestamp(2014, 2, 28),
            kSecondsPerDay);      // 2014 is not.
  EXPECT_EQ(MakeTimestamp(2000, 3, 1) - MakeTimestamp(2000, 2, 29),
            kSecondsPerDay);      // 2000 was a leap year (div by 400).
}

TEST(TimeTest, NegativeTimestamps) {
  Timestamp ts = MakeTimestamp(1969, 12, 31);
  EXPECT_EQ(ts, -kSecondsPerDay);
  EXPECT_EQ(FormatDate(ts), "1969-12-31");
  EXPECT_EQ(FormatDate(ts + kSecondsPerDay - 1), "1969-12-31");
}

// Property: civil -> timestamp -> civil round-trips for random dates.
class TimeRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimeRoundTrip, CivilRoundTrip) {
  Pcg32 rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    CivilDate date;
    date.year = static_cast<int>(rng.NextInRange(1900, 2100));
    date.month = static_cast<int>(rng.NextInRange(1, 12));
    // Stay within the days every month has.
    date.day = static_cast<int>(rng.NextInRange(1, 28));
    Timestamp ts = TimestampFromCivil(date);
    EXPECT_EQ(CivilFromTimestamp(ts), date);
    // Any second within the day maps back to the same civil date.
    EXPECT_EQ(CivilFromTimestamp(ts + rng.NextInRange(0, 86399)), date);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeRoundTrip, ::testing::Values(1u, 2u, 3u));

TEST(TimeTest, ConsecutiveDaysAreContiguous) {
  // Walk across several month/year boundaries one day at a time.
  Timestamp ts = MakeTimestamp(2013, 12, 28);
  for (int i = 0; i < 400; ++i) {
    CivilDate a = CivilFromTimestamp(ts);
    CivilDate b = CivilFromTimestamp(ts + kSecondsPerDay);
    EXPECT_NE(a, b);
    EXPECT_EQ(TimestampFromCivil(b) - TimestampFromCivil(a), kSecondsPerDay);
    ts += kSecondsPerDay;
  }
}

// ---------------------------------- Story ----------------------------------

Snippet MakeSnippet(SnippetId id, SourceId source, Timestamp ts,
                    std::vector<std::pair<text::TermId, double>> entities,
                    std::vector<std::pair<text::TermId, double>> keywords) {
  Snippet s;
  s.id = id;
  s.source = source;
  s.timestamp = ts;
  s.entities = text::TermVector::FromEntries(std::move(entities));
  s.keywords = text::TermVector::FromEntries(std::move(keywords));
  return s;
}

TEST(StoryTest, AddSnippetUpdatesAggregates) {
  Story story(7);
  Snippet a = MakeSnippet(1, 0, 100, {{0, 1.0}}, {{5, 2.0}});
  Snippet b = MakeSnippet(2, 1, 50, {{0, 1.0}, {1, 1.0}}, {{5, 1.0}});
  story.AddSnippet(a);
  story.AddSnippet(b);
  EXPECT_EQ(story.size(), 2u);
  EXPECT_EQ(story.start_time(), 50);
  EXPECT_EQ(story.end_time(), 100);
  EXPECT_EQ(story.sources().size(), 2u);
  EXPECT_DOUBLE_EQ(story.entities().ValueOf(0), 2.0);
  EXPECT_DOUBLE_EQ(story.keywords().ValueOf(5), 3.0);
}

TEST(StoryTest, SnippetsKeptInTimeOrder) {
  Story story(1);
  story.AddSnippet(MakeSnippet(10, 0, 300, {}, {}));
  story.AddSnippet(MakeSnippet(11, 0, 100, {}, {}));
  story.AddSnippet(MakeSnippet(12, 0, 200, {}, {}));
  ASSERT_EQ(story.snippets().size(), 3u);
  EXPECT_EQ(story.snippets()[0], 11u);
  EXPECT_EQ(story.snippets()[1], 12u);
  EXPECT_EQ(story.snippets()[2], 10u);
}

TEST(StoryTest, RemoveSnippetRecomputesSpanAndSources) {
  Story story(1);
  Snippet a = MakeSnippet(1, 0, 100, {{0, 1.0}}, {{5, 1.0}});
  Snippet b = MakeSnippet(2, 1, 200, {{1, 1.0}}, {{6, 1.0}});
  story.AddSnippet(a);
  story.AddSnippet(b);
  story.RemoveSnippet(b, {&a});
  EXPECT_EQ(story.size(), 1u);
  EXPECT_EQ(story.start_time(), 100);
  EXPECT_EQ(story.end_time(), 100);
  EXPECT_EQ(story.sources().size(), 1u);
  EXPECT_DOUBLE_EQ(story.entities().ValueOf(1), 0.0);
  EXPECT_DOUBLE_EQ(story.keywords().ValueOf(6), 0.0);
}

TEST(StoryTest, RemoveLastSnippetEmptiesStory) {
  Story story(1);
  Snippet a = MakeSnippet(1, 0, 100, {{0, 1.0}}, {});
  story.AddSnippet(a);
  story.RemoveSnippet(a, {});
  EXPECT_TRUE(story.empty());
  EXPECT_TRUE(story.entities().empty());
}

TEST(StoryTest, Contains) {
  Story story(1);
  story.AddSnippet(MakeSnippet(42, 0, 10, {}, {}));
  EXPECT_TRUE(story.Contains(42));
  EXPECT_FALSE(story.Contains(43));
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Every member, span, source and term weight of `a` equals `b`'s, the
/// weights bit for bit.
void ExpectSameStory(const Story& a, const Story& b) {
  EXPECT_EQ(a.snippets(), b.snippets());
  EXPECT_EQ(a.start_time(), b.start_time());
  EXPECT_EQ(a.end_time(), b.end_time());
  EXPECT_EQ(a.sources(), b.sources());
  for (auto terms : {&Story::entities, &Story::keywords}) {
    const auto& x = (a.*terms)().entries();
    const auto& y = (b.*terms)().entries();
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].first, y[i].first);
      EXPECT_EQ(Bits(x[i].second), Bits(y[i].second)) << "term " << x[i].first;
    }
  }
}

TEST(StoryTest, MergeFromCombinesEverything) {
  Story a(1), b(2);
  a.AddSnippet(MakeSnippet(1, 0, 100, {{0, 1.0}}, {{5, 1.0}}));
  b.AddSnippet(MakeSnippet(2, 1, 50, {{1, 2.0}}, {{5, 2.0}}));
  b.AddSnippet(MakeSnippet(3, 1, 300, {{0, 1.0}}, {}));
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.start_time(), 50);
  EXPECT_EQ(a.end_time(), 300);
  EXPECT_EQ(a.sources().size(), 2u);
  EXPECT_DOUBLE_EQ(a.entities().ValueOf(0), 2.0);
  EXPECT_DOUBLE_EQ(a.keywords().ValueOf(5), 3.0);
  // Members stay time-ordered after merge.
  EXPECT_EQ(a.snippets().front(), 2u);
  EXPECT_EQ(a.snippets().back(), 3u);

  // Interleaved members, some at equal timestamps on both sides: the
  // one-pass merge orders them by (timestamp, id), as adding the
  // snippets one at a time does.
  const std::vector<Snippet> snippets = {
      MakeSnippet(10, 0, 100, {{0, 0.1}}, {{5, 0.3}}),
      MakeSnippet(11, 1, 100, {{0, 0.2}}, {{6, 1.0}}),
      MakeSnippet(12, 0, 200, {{1, 0.7}}, {{5, 0.1}}),
      MakeSnippet(13, 1, 150, {{0, 0.3}}, {{5, 0.2}}),
      MakeSnippet(14, 0, 150, {{2, 1.0}}, {}),
      MakeSnippet(15, 1, 200, {{1, 0.9}}, {{6, 0.4}}),
      MakeSnippet(16, 0, 90, {{0, 0.5}}, {{7, 2.0}}),
      MakeSnippet(17, 1, 300, {}, {{5, 0.6}}),
  };
  Story left(20), right(21), one_at_a_time(20);
  for (size_t i = 0; i < snippets.size(); ++i) {
    (i % 2 == 0 ? left : right).AddSnippet(snippets[i]);
  }
  for (size_t i = 0; i < snippets.size(); i += 2) {
    one_at_a_time.AddSnippet(snippets[i]);
  }
  for (size_t i = 1; i < snippets.size(); i += 2) {
    one_at_a_time.AddSnippet(snippets[i]);
  }
  left.MergeFrom(right);
  ExpectSameStory(left, one_at_a_time);
  EXPECT_EQ(left.snippets(),
            (std::vector<SnippetId>{16, 10, 11, 13, 14, 12, 15, 17}));
}

TEST(StoryTest, MergeIntoEmptyStory) {
  Story a(1), b(2);
  b.AddSnippet(MakeSnippet(2, 1, 50, {{1, 2.0}}, {}));
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.start_time(), 50);
  EXPECT_EQ(a.end_time(), 50);
}

}  // namespace
}  // namespace storypivot
