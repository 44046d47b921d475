#ifndef STORYPIVOT_BENCH_BENCH_UTIL_H_
#define STORYPIVOT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "util/fs.h"
#include "util/logging.h"
#include "viz/ascii.h"

namespace storypivot::bench {

/// Standard #events sweep used by the Fig. 7 reproductions. Sizes are
/// small enough that the whole bench suite runs in well under a minute per
/// binary while still showing the asymptotic separation of the modes.
inline std::vector<int> EventSweep() { return {1000, 2000, 4000, 8000, 16000}; }

/// Base corpus configuration for the Fig. 7 experiments: a scaled-down
/// version of the paper's GDELT June-December 2014 dataset (the full-size
/// card is printed separately by the performance bench).
inline datagen::CorpusConfig Fig7CorpusConfig(int target_snippets) {
  datagen::CorpusConfig config = datagen::GdeltScalePreset();
  // Scale the world down with the snippet budget so stories stay dense
  // enough to detect; sources stay at 10 for bench speed.
  config.num_sources = 10;
  config.num_entities = 200;
  config.num_communities = 25;
  config.num_stories = 40;
  config.target_num_snippets = target_snippets;
  return config;
}

/// Prints the dataset-information card of the statistics module (Fig. 7).
inline void PrintDatasetCard(const datagen::CorpusConfig& config,
                             const char* name) {
  std::printf("Dataset Information\n");
  std::printf("  Dataset     %s\n", name);
  std::printf("  # Sources   %d\n", config.num_sources);
  std::printf("  # Entities  %d\n", config.num_entities);
  std::printf("  # Snippets  %d (target)\n", config.target_num_snippets);
  std::printf("  Start Date  %s\n", FormatDate(config.start_time).c_str());
  std::printf("  End Date    %s\n\n", FormatDate(config.end_time).c_str());
}

/// Median and quartiles of one measurement over repeated passes.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Linear-interpolation quartiles of `values` (non-empty).
inline Quartiles Summarize(std::vector<double> values) {
  SP_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  auto at = [&values](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// Emits a bench's JSON. A full run writes `path`, the committed BENCH
/// file; a smoke run leaves that file alone and prints the JSON as its
/// last stdout line, so CI's smoke steps never rewrite committed results.
inline void EmitBenchJson(const char* path, const std::string& json,
                          bool smoke) {
  if (smoke) {
    std::printf("\n%s", json.c_str());
    return;
  }
  SP_CHECK_OK(WriteStringToFile(path, json));
  std::printf("\nwrote %s\n", path);
}

}  // namespace storypivot::bench

#endif  // STORYPIVOT_BENCH_BENCH_UTIL_H_
