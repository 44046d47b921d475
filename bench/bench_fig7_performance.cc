// Reproduces the *Performance* panel of the paper's statistics module
// (Fig. 7): story-identification execution time vs #events, for the
// temporal and complete SI methods, plus the cost of story alignment (SA)
// and refinement.
//
// The paper plots execution time in ms against the number of events on a
// GDELT extraction (50 sources / 500 entities / Jun-Dec 2014 / 10M
// snippets). We run the same generator at bench-scale; absolute numbers
// differ from the authors' testbed, but the shape — temporal flat-ish and
// cheap, complete superlinear and increasingly expensive — is the claim
// under reproduction.
//
// Writes BENCH_fig7.json: the 1k-16k sweep in both modes plus a
// temporal-only point at 10^5 snippets, where Align() and Refine()
// together must take no longer than ingest (the run exits 1 otherwise,
// after writing the file). Run with --smoke for the CI-sized variant: the
// sweep stops at 4k snippets, nothing is gated, and the JSON is printed
// instead of written (EmitBenchJson).

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "util/strings.h"

namespace storypivot::bench {
namespace {

/// The temporal-only point beyond the sweep: a scale at which a
/// quadratic counterpart scan would dominate detection.
constexpr int kLargeTemporalPoint = 100000;

int Run(bool smoke) {
  std::printf("== Fig. 7 / Performance: execution time vs #events ==\n\n");
  PrintDatasetCard(datagen::GdeltScalePreset(),
                   "GDELT (paper card; bench runs scaled-down snapshots)");

  struct Point {
    int n;
    IdentificationMode mode;
  };
  std::vector<Point> points;
  for (int n : EventSweep()) {
    if (smoke && n > 4000) break;
    points.push_back({n, IdentificationMode::kTemporal});
    points.push_back({n, IdentificationMode::kComplete});
  }
  if (!smoke) {
    points.push_back({kLargeTemporalPoint, IdentificationMode::kTemporal});
  }

  std::vector<eval::ExperimentRow> rows;
  viz::Series temporal_series{"temporal ms/event", {}};
  viz::Series complete_series{"complete ms/event", {}};
  viz::Series align_series{"SA align ms/event", {}};
  viz::Series refine_series{"refine ms/event", {}};
  for (const Point& point : points) {
    const bool temporal = point.mode == IdentificationMode::kTemporal;
    eval::ExperimentConfig config;
    config.corpus = Fig7CorpusConfig(point.n);
    config.engine.mode = point.mode;
    config.label = std::string(temporal ? "temporal w=7d" : "complete") +
                   " n=" + std::to_string(point.n);
    eval::ExperimentRow row = eval::RunExperiment(config);
    const double events = static_cast<double>(row.num_events);
    if (temporal) {
      temporal_series.points.push_back({events, row.per_event_ms});
      align_series.points.push_back({events, row.align_time_ms / events});
      refine_series.points.push_back({events, row.refine_time_ms / events});
    } else {
      complete_series.points.push_back({events, row.per_event_ms});
    }
    std::printf("%-22s %7zu events: ingest %9.1f ms, align %8.1f ms, "
                "refine %8.1f ms\n",
                row.label.c_str(), row.num_events, row.ingest_time_ms,
                row.align_time_ms, row.refine_time_ms);
    rows.push_back(std::move(row));
  }

  std::printf("\n%s\n", eval::FormatRows(rows).c_str());
  std::printf("%s\n",
              viz::RenderXyChart(
                  "Execution time per event (SI method sweep)", "# events",
                  "ms/event",
                  {temporal_series, complete_series, align_series,
                   refine_series},
                  /*log_x=*/true)
                  .c_str());

  // Headline ratio at the largest scale both modes ran. Rows alternate
  // temporal, complete over the sweep.
  const eval::ExperimentRow* biggest_t = nullptr;
  const eval::ExperimentRow* biggest_c = nullptr;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].mode == IdentificationMode::kComplete) {
      biggest_c = &rows[i];
      biggest_t = &rows[i - 1];
    }
  }
  if (biggest_t != nullptr && biggest_t->ingest_time_ms > 0) {
    std::printf(
        "at n=%zu: complete/temporal ingest-time ratio = %.1fx, "
        "comparison ratio = %.1fx\n",
        biggest_t->num_events,
        biggest_c->ingest_time_ms / biggest_t->ingest_time_ms,
        static_cast<double>(biggest_c->comparisons) /
            static_cast<double>(biggest_t->comparisons));
  }

  const datagen::CorpusConfig card = Fig7CorpusConfig(0);
  std::string json = StrFormat(
      "{\"bench\":\"fig7_performance\",\"smoke\":%s,"
      "\"hardware_threads\":%u,\"config\":{\"sources\":%d,\"entities\":%d,"
      "\"stories\":%d,\"engine_threads\":%zu,\"window_days\":%.0f},"
      "\"rows\":[",
      smoke ? "true" : "false", std::thread::hardware_concurrency(),
      card.num_sources, card.num_entities, card.num_stories,
      EngineConfig().num_threads,
      static_cast<double>(IdentifierConfig().window) / kSecondsPerDay);
  for (size_t i = 0; i < rows.size(); ++i) {
    const eval::ExperimentRow& row = rows[i];
    json += StrFormat(
        "%s{\"n\":%zu,\"mode\":\"%s\",\"ingest_ms\":%.1f,\"align_ms\":%.1f,"
        "\"refine_ms\":%.1f,\"comparisons\":%llu}",
        i == 0 ? "" : ",", row.num_events,
        points[i].mode == IdentificationMode::kTemporal ? "temporal"
                                                        : "complete",
        row.ingest_time_ms, row.align_time_ms, row.refine_time_ms,
        static_cast<unsigned long long>(row.comparisons));
  }
  json += "]}\n";
  EmitBenchJson("BENCH_fig7.json", json, smoke);
  if (smoke) return 0;

  // Gate: at the largest temporal point, alignment and refinement stay
  // within the ingest budget.
  const eval::ExperimentRow& large = rows.back();
  const bool ok =
      large.align_time_ms + large.refine_time_ms <= large.ingest_time_ms;
  std::printf("gate at n=%zu: align %.1f + refine %.1f ms %s ingest %.1f "
              "ms: %s\n",
              large.num_events, large.align_time_ms, large.refine_time_ms,
              ok ? "<=" : ">", large.ingest_time_ms, ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace storypivot::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return storypivot::bench::Run(smoke);
}
