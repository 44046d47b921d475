// Tests of the benchmark's own arithmetic (bench_stats.h). run.py runs
// this before every measurement, so a wrong percentile or schedule can
// never reach a reported number.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_stats.h"
#include "util/rng.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankWithSampleCounts) {
  std::vector<double> samples;
  for (int i = 10; i >= 1; --i) samples.push_back(i);  // Unsorted input.
  const Quantile p50 = Percentile(samples, 50);
  EXPECT_EQ(p50.value, 5.0);
  EXPECT_EQ(p50.n, 10u);
  EXPECT_EQ(p50.beyond, 5u);
  const Quantile p90 = Percentile(samples, 90);
  EXPECT_EQ(p90.value, 9.0);
  EXPECT_EQ(p90.beyond, 1u);
  const Quantile p99 = Percentile(samples, 99);
  EXPECT_EQ(p99.value, 10.0);
  EXPECT_EQ(p99.beyond, 0u);  // Too few samples to support a p99.
}

TEST(PercentileTest, TiesAndEdgeCases) {
  const Quantile tied = Percentile({1, 2, 2, 2, 3}, 50);
  EXPECT_EQ(tied.value, 2.0);
  EXPECT_EQ(tied.beyond, 1u);  // Only samples strictly above count.
  const Quantile single = Percentile({7.5}, 90);
  EXPECT_EQ(single.value, 7.5);
  EXPECT_EQ(single.n, 1u);
  const Quantile empty = Percentile({}, 50);
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.value, 0.0);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Mean({0, 1, 1, 2}), 1.0);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(PassesTest, MediansOverPassesPerValueAndPerOperation) {
  Passes passes;
  for (double s : {2.5, 1.5, 3.0}) passes.Value("detect_s", s);
  for (double mb : {50.0, 70.0, 60.0, 90.0}) passes.Value("rss", mb);
  EXPECT_TRUE(passes.Ops("write", {3, 4}));
  EXPECT_TRUE(passes.Ops("write", {2, 9}));
  EXPECT_TRUE(passes.Ops("write", {5, 5}));
  // A pass that timed other work is refused and changes nothing.
  EXPECT_FALSE(passes.Ops("write", {1}));
  const std::map<std::string, double> medians = passes.Medians();
  EXPECT_EQ(medians.size(), 2u);
  EXPECT_EQ(medians.at("detect_s"), 2.5);
  EXPECT_EQ(medians.at("rss"), 65.0);
  // Op 1's burst of 9 in one pass does not move its median.
  EXPECT_EQ(passes.OpMedians("write"), (std::vector<double>{3, 5}));
  EXPECT_TRUE(passes.OpMedians("query").empty());

  // A closed-loop client reaches a different count each pass: medians
  // cover the requests every pass sent.
  passes.OpsPrefix("client", {1, 8, 3, 4});
  passes.OpsPrefix("client", {2, 2, 5});
  passes.OpsPrefix("client", {3, 6, 1, 9, 9});
  EXPECT_EQ(passes.OpMedians("client"), (std::vector<double>{2, 6, 3}));
}

TEST(ReferenceSpeedTest, ScalesTimesAndRatesOnly) {
  // A host running 1.25x slower than the reference.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(2.5, "s", 1.25), 2.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(5.0, "ms", 1.25), 4.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(10.0, "us", 1.25), 8.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(800.0, "1/s", 1.25), 1000.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(0.85, "F1", 1.25), 0.85);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(54.0, "MB", 1.25), 54.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(12.0, "count", 1.25), 12.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(2.5, "s", 0.0), 2.5);  // No probe.
}

TEST(OpenLoopTest, LatencyCountsFromDueTimeAndStallsDelayLaterOps) {
  constexpr int64_t kMs = 1'000'000;
  const int64_t start = 1000 * kMs;
  const int64_t interval = 10 * kMs;
  EXPECT_EQ(DueNs(start, interval, 0), start);
  EXPECT_EQ(DueNs(start, interval, 3), start + 30 * kMs);
  std::vector<OpenLoopOp> ops = {
      // Overruns its 10 ms slot.
      {DueNs(start, interval, 0), start, start + 15 * kMs},
      // Issued 5 ms late because of the stall, served in 2 ms.
      {DueNs(start, interval, 1), start + 15 * kMs, start + 17 * kMs},
      // On time within the threshold.
      {DueNs(start, interval, 2), start + 20 * kMs + kMs / 5,
       start + 21 * kMs},
  };
  const OpenLoopSummary summary = SummarizeOpenLoop(ops, 1.0);
  ASSERT_EQ(summary.latency_ms.size(), 3u);
  EXPECT_DOUBLE_EQ(summary.latency_ms[0], 15.0);
  EXPECT_DOUBLE_EQ(summary.latency_ms[1], 7.0);  // Not the 2 ms service.
  EXPECT_DOUBLE_EQ(summary.service_ms[1], 2.0);
  EXPECT_DOUBLE_EQ(summary.latency_ms[2], 1.0);
  EXPECT_DOUBLE_EQ(summary.late_max_ms, 5.0);
  EXPECT_EQ(summary.late_ops, 1u);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},    // Overlaps a: counted once.
      {"c", 90, 120, 0, 1},   // Clipped to the parent's end.
      {"a.child", 12, 14, 1, 1},
  };
  EXPECT_EQ(SelfTimeNs(spans, 0), 100 - 40 - 10);
  EXPECT_EQ(SelfTimeNs(spans, 1), 20 - 2);
  EXPECT_EQ(SelfTimeNs(spans, 4), 2);
  EXPECT_EQ(CoveredNs({{5, 10}, {0, 3}, {8, 12}}, 0, 100), 3 + 7);
}

TEST(SpanTest, TimedRecordsOnlyWithATracer) {
  Tracer tracer;
  Timed root(&tracer, "root", -1, 9);
  Timed child(&tracer, "child", root.id(), 9);
  const int64_t child_ns = child.End();
  const int64_t root_ns = root.End();
  EXPECT_GE(root_ns, child_ns);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 9u);
  EXPECT_EQ(spans[0].end_ns - spans[0].start_ns, root_ns);
  EXPECT_GE(SelfTimeNs(spans, 0), 0);

  Timed untraced(nullptr, "untraced");
  EXPECT_GE(untraced.End(), 0);
  EXPECT_EQ(untraced.id(), -1);
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(RequestSequenceTest, SameSeedSameSequence) {
  constexpr uint32_t kQueries = 2000;
  const storypivot::ZipfDistribution zipf(kQueries, 1.0);
  const std::vector<uint32_t> order = PopularityOrder(kQueries, 42);
  EXPECT_EQ(order, PopularityOrder(kQueries, 42));
  std::vector<uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < kQueries; ++i) ASSERT_EQ(sorted[i], i);

  auto draw = [&](uint64_t seed, uint64_t stream) {
    RequestSequence sequence(&zipf, &order, seed, stream);
    std::vector<uint32_t> out;
    for (int i = 0; i < 20000; ++i) out.push_back(sequence.Next());
    return out;
  };
  const std::vector<uint32_t> a = draw(42, 100);
  EXPECT_EQ(a, draw(42, 100));
  EXPECT_NE(a, draw(43, 100));
  EXPECT_NE(a, draw(42, 101));  // Clients draw independent sequences.

  // Zipf(1) over 2000 ranks: the top rank takes 1/H(2000) ~ 12.2% of the
  // draws, so the epoch-keyed cache sees real repeats.
  const size_t top =
      static_cast<size_t>(std::count(a.begin(), a.end(), order[0]));
  EXPECT_GT(top, 20000 * 0.10);
  EXPECT_LT(top, 20000 * 0.145);
}

}  // namespace
}  // namespace perfbench
