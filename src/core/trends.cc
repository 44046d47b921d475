#include "core/trends.h"

#include <algorithm>

#include "util/logging.h"

namespace storypivot {
namespace {

/// DetectTrendingStories' burst test (see trends.h).
constexpr Timestamp kBucketWidth = kSecondsPerDay;
constexpr int kRecentBuckets = 7;
constexpr double kBurstFactor = 2.0;
constexpr int kMinRecent = 3;

}  // namespace

int ActivitySeries::Total() const {
  int total = 0;
  for (int c : counts) total += c;
  return total;
}

int ActivitySeries::CountAt(Timestamp ts) const {
  if (bucket_width <= 0 || ts < origin) return 0;
  size_t bucket = static_cast<size_t>((ts - origin) / bucket_width);
  if (bucket >= counts.size()) return 0;
  return counts[bucket];
}

ActivitySeries BuildActivitySeries(const StoryPivotEngine& engine,
                                   const Story& story,
                                   Timestamp bucket_width) {
  SP_CHECK(bucket_width > 0);
  ActivitySeries series;
  series.story = story.id();
  series.bucket_width = bucket_width;
  if (story.empty()) return series;
  // Align the origin to a bucket boundary for stable bucketing.
  series.origin = (story.start_time() / bucket_width) * bucket_width;
  if (story.start_time() < 0 && story.start_time() % bucket_width != 0) {
    series.origin -= bucket_width;
  }
  size_t buckets = static_cast<size_t>(
                       (story.end_time() - series.origin) / bucket_width) +
                   1;
  series.counts.assign(buckets, 0);
  for (SnippetId sid : story.snippets()) {
    const Snippet* snippet = engine.store().Find(sid);
    SP_CHECK(snippet != nullptr);
    size_t bucket = static_cast<size_t>(
        (snippet->timestamp - series.origin) / bucket_width);
    SP_CHECK(bucket < series.counts.size());
    ++series.counts[bucket];
  }
  return series;
}

std::vector<TrendingStory> DetectTrendingStories(
    const StoryPivotEngine& engine, Timestamp now) {
  SP_CHECK(engine.has_alignment());
  std::vector<TrendingStory> out;
  const Timestamp window = kRecentBuckets * kBucketWidth;
  const Timestamp recent_begin = now - window;

  for (const IntegratedStory& integrated : engine.alignment().stories) {
    const Story& story = integrated.merged;
    if (story.empty() || story.start_time() > now) continue;

    int recent = 0;
    int baseline_count = 0;
    for (SnippetId sid : story.snippets()) {
      const Snippet* snippet = engine.store().Find(sid);
      SP_CHECK(snippet != nullptr);
      if (snippet->timestamp > now) continue;
      if (snippet->timestamp > recent_begin) {
        ++recent;
      } else {
        ++baseline_count;
      }
    }
    if (recent < kMinRecent) continue;

    // Rates per bucket: recent window vs everything before it.
    double recent_rate =
        static_cast<double>(recent) / kRecentBuckets;
    Timestamp baseline_span = recent_begin - story.start_time();
    double burst_ratio;
    bool emerging = baseline_span <= 0 || baseline_count == 0;
    if (emerging) {
      burst_ratio = 1000.0;  // Fresh story: infinite burst, clamped.
    } else {
      double baseline_buckets = std::max<double>(
          1.0, static_cast<double>(baseline_span) / kBucketWidth);
      double baseline_rate = baseline_count / baseline_buckets;
      burst_ratio = baseline_rate <= 0 ? 1000.0
                                       : std::min(1000.0, recent_rate /
                                                              baseline_rate);
    }
    if (burst_ratio < kBurstFactor) continue;

    TrendingStory trending;
    trending.story = integrated.id;
    trending.recent_count = recent;
    trending.burst_ratio = burst_ratio;
    trending.emerging = emerging;
    out.push_back(trending);
  }
  std::sort(out.begin(), out.end(),
            [](const TrendingStory& a, const TrendingStory& b) {
              if (a.burst_ratio != b.burst_ratio) {
                return a.burst_ratio > b.burst_ratio;
              }
              if (a.recent_count != b.recent_count) {
                return a.recent_count > b.recent_count;
              }
              return a.story < b.story;
            });
  return out;
}

}  // namespace storypivot
