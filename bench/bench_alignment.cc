// Ablations A-sources and F1-refine: story alignment scalability with the
// number of sources, and the quality contribution of the refinement step
// (Fig. 1c/1d).
//
// Writes BENCH_alignment.json: one `sources` row per source count (6,000
// target snippets, no refinement) with the per-source story count, whether
// Align() took the LSH path (more than kLshMinStories stories), align_ms
// and SA-F1; and one `refinement` row per seed and refine setting on a
// noisier 4,000-snippet corpus with SI-F1, SA-F1 and refine_ms. Each row
// runs kPasses times and its times are medians; the scores do not vary.
// Run with --smoke for the CI-sized variant (2 and 4 sources at 1,500
// snippets, one seed), which prints the JSON instead (EmitBenchJson).

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "util/strings.h"

namespace storypivot::bench {
namespace {

/// Runs per row; align_ms and refine_ms are their medians.
constexpr int kPasses = 5;

/// RunExperiment(config) kPasses times, with the median align and refine
/// times.
eval::ExperimentRow MedianRun(const eval::ExperimentConfig& config) {
  std::vector<double> align_ms, refine_ms;
  eval::ExperimentRow row;
  for (int pass = 0; pass < kPasses; ++pass) {
    row = eval::RunExperiment(config);
    align_ms.push_back(row.align_time_ms);
    refine_ms.push_back(row.refine_time_ms);
  }
  row.align_time_ms = Summarize(align_ms).median;
  row.refine_time_ms = Summarize(refine_ms).median;
  return row;
}

/// Noise of the refinement corpus: identification makes the mistakes that
/// refinement exists to correct.
constexpr double kRefineEntityNoise = 0.2;
constexpr double kRefineKeywordNoise = 0.25;

std::string SourceScaling(bool smoke) {
  std::printf("-- A-sources: alignment cost & quality vs #sources --\n\n");
  const int n = smoke ? 1500 : 6000;
  const std::vector<int> sweep =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{2, 4, 8, 16, 32, 64};
  std::vector<eval::ExperimentRow> rows;
  viz::Series align_ms{"align ms", {}};
  viz::Series quality{"SA-F1", {}};
  double max_ms = 1.0;
  std::string json;
  for (int sources : sweep) {
    eval::ExperimentConfig config;
    config.corpus = Fig7CorpusConfig(n);
    config.corpus.num_sources = sources;
    config.run_refinement = false;
    config.label = "sources=" + std::to_string(sources);
    eval::ExperimentRow row = MedianRun(config);
    align_ms.points.push_back({static_cast<double>(sources),
                               row.align_time_ms});
    max_ms = std::max(max_ms, row.align_time_ms);
    quality.points.push_back({static_cast<double>(sources),
                              row.sa_pairwise.f1});
    json += StrFormat(
        "%s{\"sources\":%d,\"n\":%zu,\"stories\":%zu,\"lsh\":%s,"
        "\"integrated\":%zu,\"align_ms\":%.1f,\"sa_f1\":%.3f}",
        json.empty() ? "" : ",", sources, row.num_events,
        row.stories_per_source_total,
        row.stories_per_source_total > kLshMinStories ? "true" : "false",
        row.integrated_stories, row.align_time_ms, row.sa_pairwise.f1);
    rows.push_back(std::move(row));
  }
  for (auto& [x, y] : align_ms.points) y /= max_ms;
  std::printf("%s\n", eval::FormatRows(rows).c_str());
  std::printf("%s\n",
              viz::RenderXyChart(
                  StrFormat("Alignment vs #sources (n=%d fixed)", n),
                  "# sources", "SA-F1 / scaled align time",
                  {quality, align_ms}, /*log_x=*/true)
                  .c_str());
  return json;
}

std::string RefinementGain(bool smoke) {
  std::printf("-- F1-refine: refinement's effect (Fig. 1d) --\n\n");
  const int n = smoke ? 1500 : 4000;
  const std::vector<uint64_t> seeds =
      smoke ? std::vector<uint64_t>{2014}
            : std::vector<uint64_t>{2014, 2015, 2016};
  std::vector<eval::ExperimentRow> rows;
  std::string json;
  for (uint64_t seed : seeds) {
    for (bool refine : {false, true}) {
      eval::ExperimentConfig config;
      config.corpus = Fig7CorpusConfig(n);
      config.corpus.seed = seed;
      config.corpus.entity_noise = kRefineEntityNoise;
      config.corpus.keyword_noise = kRefineKeywordNoise;
      config.run_refinement = refine;
      config.label = "seed=" + std::to_string(seed) +
                     (refine ? " +refine" : " baseline");
      eval::ExperimentRow row = MedianRun(config);
      json += StrFormat(
          "%s{\"seed\":%llu,\"refine\":%s,\"n\":%zu,\"si_f1\":%.3f,"
          "\"sa_f1\":%.3f,\"refine_ms\":%.1f}",
          json.empty() ? "" : ",", static_cast<unsigned long long>(seed),
          refine ? "true" : "false", row.num_events, row.si_pairwise.f1,
          row.sa_pairwise.f1, row.refine_time_ms);
      rows.push_back(std::move(row));
    }
  }
  std::printf("%s\n", eval::FormatRows(rows).c_str());
  return json;
}

void Run(bool smoke) {
  std::printf("== bench_alignment: cross-source story alignment ==\n\n");
  const std::string sources = SourceScaling(smoke);
  const std::string refinement = RefinementGain(smoke);
  const datagen::CorpusConfig card = Fig7CorpusConfig(0);
  std::string json = StrFormat(
      "{\"bench\":\"alignment\",\"smoke\":%s,\"hardware_threads\":%u,"
      "\"config\":{\"entities\":%d,\"stories\":%d,\"engine_threads\":%zu,"
      "\"window_days\":%.0f,\"lsh_above_stories\":%zu,"
      "\"refine_entity_noise\":%.2f,\"refine_keyword_noise\":%.2f,"
      "\"passes\":%d},"
      "\"sources\":[%s],\"refinement\":[%s]}\n",
      smoke ? "true" : "false", std::thread::hardware_concurrency(),
      card.num_entities, card.num_stories, EngineConfig().num_threads,
      static_cast<double>(IdentifierConfig().window) / kSecondsPerDay,
      kLshMinStories, kRefineEntityNoise, kRefineKeywordNoise, kPasses,
      sources.c_str(), refinement.c_str());
  EmitBenchJson("BENCH_alignment.json", json, smoke);
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
