#ifndef STORYPIVOT_CORE_TRENDS_H_
#define STORYPIVOT_CORE_TRENDS_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "model/time.h"

namespace storypivot {

/// Activity of one story over time: snippet counts per fixed-width time
/// bucket. The backbone of trend detection (§1: "applications ranging
/// from trend detection to economic analysis").
struct ActivitySeries {
  StoryId story = kInvalidStoryId;
  Timestamp origin = 0;       // Start of bucket 0.
  Timestamp bucket_width = kSecondsPerDay;
  std::vector<int> counts;    // Snippets whose event time falls in bucket i.

  /// Total snippets in the series.
  int Total() const;
  /// Count in the bucket containing `ts` (0 when out of range).
  int CountAt(Timestamp ts) const;
};

/// One trending story at evaluation time.
struct TrendingStory {
  StoryId story = kInvalidStoryId;
  /// Snippets in the recent window.
  int recent_count = 0;
  /// recent rate / baseline rate (baseline = activity before the window);
  /// infinity-like values are clamped to 1000 for fresh stories.
  double burst_ratio = 0.0;
  /// True when the story first appeared inside the recent window.
  bool emerging = false;
};

/// Builds the per-bucket activity series of one (per-source or merged)
/// story from its member snippets' event timestamps.
ActivitySeries BuildActivitySeries(const StoryPivotEngine& engine,
                                   const Story& story,
                                   Timestamp bucket_width = kSecondsPerDay);

/// Finds integrated stories bursting at time `now` (typically the latest
/// arrival), ordered by burst ratio (descending, ties by recent count).
/// A story is bursting when its daily rate over the last 7 days is at
/// least twice its rate before them, with at least 3 snippets in those 7
/// days. Requires a fresh alignment.
std::vector<TrendingStory> DetectTrendingStories(
    const StoryPivotEngine& engine, Timestamp now);

}  // namespace storypivot

#endif  // STORYPIVOT_CORE_TRENDS_H_
