// The benchmark's own arithmetic, kept apart from the workloads so that
// selftest.cc can check it: percentiles with their sample counts, medians
// over passes, scaling to the reference host speed, open-loop latency
// accounting, span recording and self time, and the seeded Zipf request
// sequence.
#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/sync.h"

namespace perfbench {

/// Nanoseconds on the steady clock; every timestamp in the benchmark
/// (due times, spans, latencies) is taken from this one clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The steady-clock time point of NowNs() value `ns`, for sleep_until.
inline std::chrono::steady_clock::time_point SteadyAt(int64_t ns) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns)));
}

/// A percentile and the sample it came from: `n` samples, of which
/// `beyond` lie strictly above `value`. A tail percentile backed by fewer
/// than ten samples beyond it is noise, so callers print both counts.
struct Quantile {
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile, `q` in (0, 100]. An empty sample gives
/// value 0 with n == 0.
inline Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double exact = q / 100.0 * static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(exact));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = static_cast<size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

/// Median of per-repeat values: the middle one, or the mean of the two
/// middle ones for an even count. 0 for no values.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// Mean of `values`; 0 for no values.
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

/// One corpus's measurements over its passes. Each pass repeats the same
/// work on the same input; a value keeps the median over the passes, and
/// a list of operation times each operation's median over the passes, so
/// a burst of host load that hits one pass does not move the result.
class Passes {
 public:
  void Value(const std::string& name, double value) {
    values_[name].push_back(value);
  }

  /// Adds one pass's times of a list of operations. Every pass times the
  /// same operations in the same order; a pass with a different count did
  /// different work, so it is refused (false) and nothing is added.
  bool Ops(const std::string& name, const std::vector<double>& pass) {
    std::vector<std::vector<double>>& passes = ops_[name];
    if (!passes.empty() && passes.front().size() != pass.size()) return false;
    passes.push_back(pass);
    return true;
  }

  /// Adds one pass's times of a sequence of operations that every pass
  /// starts the same way but runs for as long as the pass lasts, such as
  /// a closed-loop client's requests; OpMedians covers the operations
  /// every pass reached.
  void OpsPrefix(const std::string& name, const std::vector<double>& pass) {
    ops_[name].push_back(pass);
  }

  /// Each operation's median time over the passes, for the operations
  /// every pass timed; empty for a name never recorded.
  std::vector<double> OpMedians(const std::string& name) const {
    std::vector<double> out;
    auto it = ops_.find(name);
    if (it == ops_.end()) return out;
    const std::vector<std::vector<double>>& passes = it->second;
    size_t common = passes.front().size();
    for (const std::vector<double>& pass : passes) {
      common = std::min(common, pass.size());
    }
    std::vector<double> times(passes.size());
    for (size_t op = 0; op < common; ++op) {
      for (size_t p = 0; p < passes.size(); ++p) times[p] = passes[p][op];
      out.push_back(Median(times));
    }
    return out;
  }

  /// Every value's median over the passes.
  std::map<std::string, double> Medians() const {
    std::map<std::string, double> out;
    for (const auto& [name, values] : values_) out[name] = Median(values);
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
  std::map<std::string, std::vector<std::vector<double>>> ops_;
};

/// Scales a metric to the reference host speed. `factor` is how much
/// slower than the reference the host ran during the run: a time in s, ms
/// or us is divided by it and a rate in 1/s multiplied by it. Any other
/// unit (counts, bytes, F1, ratios) is not a speed and stays as measured.
inline double AtReferenceSpeed(double value, const std::string& unit,
                               double factor) {
  if (factor <= 0.0) return value;
  if (unit == "s" || unit == "ms" || unit == "us") return value / factor;
  if (unit == "1/s") return value * factor;
  return value;
}

/// One operation of an open-loop generator. It was due at `due_ns`, the
/// generator issued it at `sent_ns` (later than due when an earlier
/// operation overran its slot) and the system acknowledged it at
/// `acked_ns`.
struct OpenLoopOp {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t acked_ns = 0;
};

/// Due time of operation `i` on a fixed schedule.
inline int64_t DueNs(int64_t start_ns, int64_t interval_ns, size_t i) {
  return start_ns + static_cast<int64_t>(i) * interval_ns;
}

struct OpenLoopSummary {
  /// Due to ack: a stall delays every operation queued behind it.
  std::vector<double> latency_ms;
  /// Issue to ack: the system's own service time.
  std::vector<double> service_ms;
  /// Largest issue-minus-due lateness of the generator.
  double late_max_ms = 0.0;
  /// Operations issued more than `late_threshold_ms` after due.
  size_t late_ops = 0;
};

inline OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopOp>& ops,
                                         double late_threshold_ms) {
  OpenLoopSummary out;
  for (const OpenLoopOp& op : ops) {
    out.latency_ms.push_back(static_cast<double>(op.acked_ns - op.due_ns) /
                             1e6);
    out.service_ms.push_back(static_cast<double>(op.acked_ns - op.sent_ns) /
                             1e6);
    const double late =
        std::max<double>(0.0, static_cast<double>(op.sent_ns - op.due_ns) /
                                  1e6);
    out.late_max_ms = std::max(out.late_max_ms, late);
    if (late > late_threshold_ms) ++out.late_ops;
  }
  return out;
}

/// One traced call: name, start, end, the span that caused it (-1 for a
/// root) and the request it served. Spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Length of the union of `intervals`, clipped to [lo, hi).
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                         int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

/// Self time of spans[id]: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
inline int64_t SelfTimeNs(const std::vector<Span>& spans, size_t id) {
  const Span& span = spans[id];
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const Span& child : spans) {
    if (child.parent == static_cast<int32_t>(id)) {
      children.emplace_back(child.start_ns, child.end_ns);
    }
  }
  return (span.end_ns - span.start_ns) -
         CoveredNs(std::move(children), span.start_ns, span.end_ns);
}

/// In-memory span recorder shared by the benchmark's threads. Spans are
/// written out once, when the run ends.
class Tracer {
 public:
  int32_t Begin(const char* name, int32_t parent, uint64_t request,
                int64_t start_ns) {
    storypivot::MutexLock lock(mu_);
    spans_.push_back(Span{name, start_ns, 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t id, int64_t end_ns) {
    storypivot::MutexLock lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }

  std::vector<Span> spans() const {
    storypivot::MutexLock lock(mu_);
    return spans_;
  }

 private:
  // lockcheck: name=perfbench.Tracer.mu_
  mutable storypivot::Mutex mu_;
  std::vector<Span> spans_ SP_GUARDED_BY(mu_);
};

/// Times one call. The duration is always measured (end-to-end metrics
/// use it); the span is recorded only when a tracer is given.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name, int32_t parent = -1,
        uint64_t request = 0)
      : tracer_(tracer), start_ns_(NowNs()) {
    if (tracer_ != nullptr) {
      id_ = tracer_->Begin(name, parent, request, start_ns_);
    }
  }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span and returns its duration in nanoseconds.
  int64_t End() {
    const int64_t end_ns = NowNs();
    if (tracer_ != nullptr) tracer_->End(id_, end_ns);
    return end_ns - start_ns_;
  }

  int32_t id() const { return id_; }
  int64_t start_ns() const { return start_ns_; }

 private:
  Tracer* tracer_;
  int64_t start_ns_;
  int32_t id_ = -1;
};

/// A seeded permutation of `n` query indices: position r holds the query
/// that has popularity rank r, so popularity does not follow the order in
/// which the list was built.
inline std::vector<uint32_t> PopularityOrder(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  storypivot::Pcg32 rng(seed, /*stream=*/7);
  rng.Shuffle(order);
  return order;
}

/// One client's request sequence: each draw picks a popularity rank by
/// Zipf and maps it to a query. The same seed and stream give the same
/// sequence.
class RequestSequence {
 public:
  RequestSequence(const storypivot::ZipfDistribution* zipf,
                  const std::vector<uint32_t>* order, uint64_t seed,
                  uint64_t stream)
      : zipf_(zipf), order_(order), rng_(seed, stream) {}

  uint32_t Next() { return (*order_)[zipf_->Sample(rng_)]; }

 private:
  const storypivot::ZipfDistribution* zipf_;
  const std::vector<uint32_t>* order_;
  storypivot::Pcg32 rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
