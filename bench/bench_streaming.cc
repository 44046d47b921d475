// Ablation A-stream (§2.4 dynamics): near-real-time integration. Feeds a
// corpus in *publication* order (event timestamps arrive out of order),
// measures per-event identification latency percentiles as the system
// grows, the cost of periodic re-alignment, and document removal.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "util/logging.h"
#include "util/timer.h"

namespace storypivot::bench {
namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * (values.size() - 1));
  return values[idx];
}

void Run() {
  std::printf("== A-stream: out-of-order streaming integration ==\n\n");
  datagen::CorpusConfig corpus_config = Fig7CorpusConfig(12000);
  corpus_config.mean_report_delay_hours = 36;  // Strong reordering.
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();

  // How shuffled is the stream? Count inversions vs event-time order
  // among adjacent arrivals.
  size_t inversions = 0;
  for (size_t i = 1; i < corpus.snippets.size(); ++i) {
    if (corpus.snippets[i].timestamp < corpus.snippets[i - 1].timestamp) {
      ++inversions;
    }
  }
  std::printf("stream: %zu snippets, %.1f%% adjacent arrivals out of "
              "event-time order\n\n",
              corpus.snippets.size(),
              100.0 * inversions / corpus.snippets.size());

  StoryPivotEngine engine;
  SP_CHECK(engine
               .ImportVocabularies(*corpus.entity_vocabulary,
                                   *corpus.keyword_vocabulary)
               .ok());
  for (const SourceInfo& s : corpus.sources) engine.RegisterSource(s.name);

  std::vector<double> latencies_us;
  latencies_us.reserve(corpus.snippets.size());
  const size_t checkpoint = corpus.snippets.size() / 4;
  size_t next_checkpoint = checkpoint;
  std::printf("%10s %12s %12s %12s %12s %10s\n", "ingested", "p50 us/ev",
              "p95 us/ev", "p99 us/ev", "align ms", "stories");
  for (size_t i = 0; i < corpus.snippets.size(); ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    WallTimer timer;
    SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
    latencies_us.push_back(timer.ElapsedNanos() / 1e3);
    if (i + 1 == next_checkpoint || i + 1 == corpus.snippets.size()) {
      WallTimer align_timer;
      engine.Align();
      std::printf("%10zu %12.1f %12.1f %12.1f %12.1f %10zu\n", i + 1,
                  Percentile(latencies_us, 0.50),
                  Percentile(latencies_us, 0.95),
                  Percentile(latencies_us, 0.99),
                  align_timer.ElapsedMillis(),
                  engine.alignment().stories.size());
      next_checkpoint += checkpoint;
    }
  }

  eval::QualityScores scores = eval::ScoreEngine(engine);
  std::printf("\nfinal quality under streaming: SI-F1=%.3f SA-F1=%.3f "
              "NMI=%.3f\n",
              scores.si_pairwise.f1, scores.sa_pairwise.f1, scores.sa_nmi);

  // Dynamic removal: drop 5% of documents and measure.
  std::vector<std::string> urls;
  engine.store().ForEach([&](const Snippet& snippet) {
    urls.push_back(snippet.document_url);
  });
  std::sort(urls.begin(), urls.end());
  urls.erase(std::unique(urls.begin(), urls.end()), urls.end());
  size_t to_remove = urls.size() / 20;
  WallTimer removal_timer;
  for (size_t i = 0; i < to_remove; ++i) {
    SP_CHECK_OK(engine.RemoveDocument(urls[i * 20]));
  }
  std::printf("removed %zu documents in %.1f ms (%.1f us/doc, with story "
              "split checks)\n",
              to_remove, removal_timer.ElapsedMillis(),
              removal_timer.ElapsedMillis() * 1000.0 / to_remove);
  engine.Align();
  scores = eval::ScoreEngine(engine);
  std::printf("quality after removals: SA-F1=%.3f\n", scores.sa_pairwise.f1);

  // ---- Batched ingestion (AddSnippets, DESIGN.md §9): arrivals grouped
  // into fixed-size batches, serial vs pooled identification. On
  // single-core runners the two columns should roughly coincide.
  std::printf("\n-- batched ingestion: AddSnippets(512) --\n");
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineConfig config;
    config.num_threads = threads;
    StoryPivotEngine batched(config);
    SP_CHECK(batched
                 .ImportVocabularies(*corpus.entity_vocabulary,
                                     *corpus.keyword_vocabulary)
                 .ok());
    for (const SourceInfo& s : corpus.sources) {
      batched.RegisterSource(s.name);
    }
    WallTimer ingest_timer;
    std::vector<Snippet> batch;
    for (const Snippet& snippet : corpus.snippets) {
      batch.push_back(snippet);
      batch.back().id = kInvalidSnippetId;
      if (batch.size() == 512) {
        SP_CHECK_OK(batched.AddSnippets(std::move(batch)));
        batch.clear();
      }
    }
    if (!batch.empty()) SP_CHECK_OK(batched.AddSnippets(std::move(batch)));
    double ingest_ms = ingest_timer.ElapsedMillis();
    std::printf("  threads=%zu: %8.1f ms (%7.0f snippets/s), %zu stories\n",
                threads, ingest_ms,
                corpus.snippets.size() / (ingest_ms / 1000.0),
                batched.TotalStories());
  }

  // ---- Periodic re-alignment cadence (§2.4): align after every batch
  // of 200 arrivals.
  std::printf("\n-- periodic re-alignment: every 200 arrivals --\n");
  StoryPivotEngine periodic;
  SP_CHECK(periodic
               .ImportVocabularies(*corpus.entity_vocabulary,
                                   *corpus.keyword_vocabulary)
               .ok());
  for (const SourceInfo& s : corpus.sources) periodic.RegisterSource(s.name);
  double align_ms = 0.0;
  size_t aligns = 0;
  for (size_t i = 0; i < corpus.snippets.size(); ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(periodic.AddSnippet(std::move(copy)));
    if ((i + 1) % 200 == 0) {
      WallTimer t;
      periodic.Align();
      align_ms += t.ElapsedMillis();
      ++aligns;
    }
  }
  periodic.Align();
  eval::QualityScores q = eval::ScoreEngine(periodic);
  std::printf("  %4zu aligns, %8.1f ms total (%6.2f ms/align), SA-F1=%.3f\n",
              aligns, align_ms, align_ms / aligns, q.sa_pairwise.f1);
}

}  // namespace
}  // namespace storypivot::bench

int main() {
  storypivot::bench::Run();
  return 0;
}
