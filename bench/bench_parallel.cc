// Parallel executor bench (DESIGN.md §9): batch ingestion (AddSnippets)
// and alignment throughput as a function of the engine thread count,
// with a determinism cross-check — every thread count must reproduce the
// t=1 engine state bit for bit. Emits BENCH_parallel.json next to the
// human-readable table so CI and the experiment index can track the
// scaling curve.
//
// Note: speedups only materialise on multi-core hardware; the bench
// reports std::thread::hardware_concurrency() so a flat curve on a
// single-core runner is interpretable.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/snapshot.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot::bench {
namespace {

constexpr size_t kBatchSize = 512;

struct RunResult {
  size_t threads = 1;
  double ingest_ms = 0.0;
  double snippets_per_s = 0.0;
  double align_ms = 0.0;
  uint64_t fingerprint = 0;
  uint64_t align_stories = 0;
};

RunResult RunOnce(const datagen::Corpus& corpus, size_t threads) {
  EngineConfig config;
  config.num_threads = threads;
  StoryPivotEngine engine(config);
  SP_CHECK_OK(engine.ImportVocabularies(*corpus.entity_vocabulary,
                                        *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine.RegisterSource(s.name);

  RunResult result;
  result.threads = threads;
  WallTimer ingest_timer;
  std::vector<Snippet> batch;
  batch.reserve(kBatchSize);
  for (const Snippet& snippet : corpus.snippets) {
    batch.push_back(snippet);
    batch.back().id = kInvalidSnippetId;
    if (batch.size() == kBatchSize) {
      SP_CHECK_OK(engine.AddSnippets(std::move(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) SP_CHECK_OK(engine.AddSnippets(std::move(batch)));
  result.ingest_ms = ingest_timer.ElapsedMillis();
  result.snippets_per_s =
      corpus.snippets.size() / (result.ingest_ms / 1000.0);

  WallTimer align_timer;
  const AlignmentResult& aligned = engine.Align();
  result.align_ms = align_timer.ElapsedMillis();
  result.align_stories = aligned.stories.size();
  result.fingerprint = EngineStateFingerprint(engine);
  return result;
}

void Run() {
  std::printf("== parallel executor: ingestion & alignment vs threads ==\n\n");
  datagen::CorpusConfig corpus_config = Fig7CorpusConfig(12000);
  corpus_config.num_sources = 8;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("corpus: %zu snippets over %d sources; batch=%zu; "
              "hardware threads=%u\n\n",
              corpus.snippets.size(), corpus_config.num_sources, kBatchSize,
              hw);

  std::vector<RunResult> results;
  std::printf("%8s %12s %14s %12s %10s %12s\n", "threads", "ingest ms",
              "snippets/s", "align ms", "stories", "identical");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    RunResult r = RunOnce(corpus, threads);
    const bool identical =
        results.empty() || r.fingerprint == results.front().fingerprint;
    SP_CHECK(identical);  // Determinism contract: bit-identical state.
    std::printf("%8zu %12.1f %14.0f %12.1f %10llu %12s\n", r.threads,
                r.ingest_ms, r.snippets_per_s, r.align_ms,
                static_cast<unsigned long long>(r.align_stories),
                identical ? "yes" : "NO");
    results.push_back(r);
  }

  const double base = results.front().snippets_per_s;
  std::printf("\ningest speedup vs 1 thread:");
  for (const RunResult& r : results) {
    std::printf("  t%zu=%.2fx", r.threads, r.snippets_per_s / base);
  }
  std::printf("\n");

  std::string json = StrFormat(
      "{\"bench\":\"parallel\",\"snippets\":%zu,\"sources\":%d,"
      "\"batch_size\":%zu,\"hardware_threads\":%u,\"results\":[",
      corpus.snippets.size(), corpus_config.num_sources, kBatchSize, hw);
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json += StrFormat(
        "%s{\"threads\":%zu,\"ingest_ms\":%.2f,"
        "\"ingest_snippets_per_s\":%.1f,\"align_ms\":%.2f,"
        "\"speedup_vs_serial\":%.3f,\"deterministic\":true}",
        i == 0 ? "" : ",", r.threads, r.ingest_ms, r.snippets_per_s,
        r.align_ms, r.snippets_per_s / base);
  }
  json += "]}\n";
  SP_CHECK_OK(WriteStringToFile("BENCH_parallel.json", json));
  std::printf("wrote BENCH_parallel.json\n");
}

}  // namespace
}  // namespace storypivot::bench

int main() {
  storypivot::bench::Run();
  return 0;
}
