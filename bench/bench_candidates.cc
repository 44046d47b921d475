// Ablation A-candidates (§2.4): candidate generation for temporal story
// identification — the full window scan against entity-inverted-index
// pruning. Reports similarity comparisons, ingest time and end-to-end
// quality for each.
//
// Writes BENCH_candidates.json: one row per corpus size and variant with
// comparisons, ingest_ms, si_f1 and sa_f1. Each variant runs kPasses
// times and ingest_ms is the median; single runs of the same code spread
// by more than a third. Run with --smoke for the CI-sized variant (one
// 2,000-snippet corpus), which prints the JSON instead (EmitBenchJson).

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "util/strings.h"

namespace storypivot::bench {
namespace {

/// Runs per variant; ingest_ms is their median.
constexpr int kPasses = 5;

struct Variant {
  const char* name;   // Table label.
  const char* key;    // JSON `variant`.
  bool prune_entities;
};

constexpr Variant kVariants[] = {
    {"window scan (exact)", "window_scan", false},
    {"entity-index pruning", "entity_pruning", true},
};

void Run(bool smoke) {
  std::printf("== A-candidates: candidate generation for temporal SI ==\n\n");
  const std::vector<int> sizes =
      smoke ? std::vector<int>{2000} : std::vector<int>{4000, 12000};

  std::vector<eval::ExperimentRow> all_rows;
  std::vector<const Variant*> row_variants;
  for (int n : sizes) {
    std::printf("-- n = %d --\n", n);
    std::vector<eval::ExperimentRow> rows;
    for (const Variant& variant : kVariants) {
      eval::ExperimentConfig config;
      config.corpus = Fig7CorpusConfig(n);
      config.engine.identifier.prune_with_entities = variant.prune_entities;
      config.run_refinement = false;
      config.label = variant.name;
      std::vector<double> ingest_ms;
      eval::ExperimentRow row;
      for (int pass = 0; pass < kPasses; ++pass) {
        row = eval::RunExperiment(config);
        ingest_ms.push_back(row.ingest_time_ms);
      }
      row.ingest_time_ms = Summarize(ingest_ms).median;
      row.per_event_ms =
          row.ingest_time_ms / static_cast<double>(row.num_events);
      rows.push_back(std::move(row));
      row_variants.push_back(&variant);
    }
    std::printf("%s\n", eval::FormatRows(rows).c_str());
    const eval::ExperimentRow& exact = rows[0];
    for (size_t i = 1; i < rows.size(); ++i) {
      std::printf(
          "  %-22s comparisons x%.2f, ingest x%.2f, SA-F1 delta %+.3f\n",
          rows[i].label.c_str(),
          static_cast<double>(rows[i].comparisons) /
              static_cast<double>(exact.comparisons),
          rows[i].ingest_time_ms / exact.ingest_time_ms,
          rows[i].sa_pairwise.f1 - exact.sa_pairwise.f1);
    }
    std::printf("\n");
    all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  }

  const datagen::CorpusConfig card = Fig7CorpusConfig(0);
  std::string json = StrFormat(
      "{\"bench\":\"candidates\",\"smoke\":%s,\"hardware_threads\":%u,"
      "\"config\":{\"sources\":%d,\"entities\":%d,\"stories\":%d,"
      "\"engine_threads\":%zu,\"window_days\":%.0f,\"refine\":false,"
      "\"passes\":%d},\"rows\":[",
      smoke ? "true" : "false", std::thread::hardware_concurrency(),
      card.num_sources, card.num_entities, card.num_stories,
      EngineConfig().num_threads,
      static_cast<double>(IdentifierConfig().window) / kSecondsPerDay,
      kPasses);
  for (size_t i = 0; i < all_rows.size(); ++i) {
    const eval::ExperimentRow& row = all_rows[i];
    json += StrFormat(
        "%s{\"n\":%zu,\"variant\":\"%s\",\"comparisons\":%llu,"
        "\"ingest_ms\":%.1f,\"si_f1\":%.3f,\"sa_f1\":%.3f}",
        i == 0 ? "" : ",", row.num_events, row_variants[i]->key,
        static_cast<unsigned long long>(row.comparisons), row.ingest_time_ms,
        row.si_pairwise.f1, row.sa_pairwise.f1);
  }
  json += "]}\n";
  EmitBenchJson("BENCH_candidates.json", json, smoke);
}

}  // namespace
}  // namespace storypivot::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  storypivot::bench::Run(smoke);
  return 0;
}
