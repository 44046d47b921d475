// storypivot_serve — the serving tier demo (DESIGN.md §14).
//
// Stands up the full serving stack (DurableEngine + SearchEngine +
// EpochManager + Server) over a TSV corpus and drives it with concurrent
// closed-loop readers WHILE the writer keeps ingesting: every acked batch
// publishes a new epoch, readers pin whichever epoch was current when
// their query dequeued, and the demo prints throughput, latency and the
// epoch/cache statistics at the end.
//
//   storypivot_serve <in.tsv> <wal-dir> "<query>" [--readers N]
//                    [--seconds S] [--topk K] [--deadline-ms D]
//                    [--threads N] [--queue N] [--batch N]
//
// The WAL directory is durable: rerunning against a non-empty one skips
// ingest and serves the recovered state (recovery + serving in one
// command). Generate a corpus with `storypivot_cli generate`.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "datagen/gdelt_export.h"
#include "examples/flags.h"
#include "serve/serving_engine.h"
#include "util/fs.h"
#include "util/timer.h"

namespace {

using namespace storypivot;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  storypivot_serve <in.tsv> <wal-dir> \"<query>\" "
               "[--readers N] [--seconds S]\n"
               "                   [--topk K] [--deadline-ms D] "
               "[--threads N] [--queue N] [--batch N]\n");
  return 2;
}

/// Upper bound of --readers and --threads: each starts that many threads.
constexpr int64_t kMaxThreads = 64;

struct ReaderTally {
  uint64_t ok = 0;
  uint64_t cache_hits = 0;
  uint64_t unavailable = 0;
  uint64_t deadline = 0;
  uint64_t other = 0;
  uint64_t min_epoch = 0;
  uint64_t max_epoch = 0;
  std::vector<double> latencies_ms;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted->size()));
  if (idx >= sorted->size()) idx = sorted->size() - 1;
  return (*sorted)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string tsv_path = argv[1];
  const std::string wal_dir = argv[2];
  const std::string query_text = argv[3];
  // Every flag is checked before anything is read, opened or started.
  Flags flags(argc - 4, argv + 4);
  const size_t readers =
      static_cast<size_t>(flags.Int("--readers", 4, 1, kMaxThreads));
  const double seconds =
      static_cast<double>(flags.Int("--seconds", 5, 0, 86400));
  const size_t batch =
      static_cast<size_t>(flags.Int("--batch", 64, 1, 1 << 20));
  serve::ServerOptions server_options;
  server_options.num_threads =
      static_cast<size_t>(flags.Int("--threads", 4, 1, kMaxThreads));
  server_options.max_queued =
      static_cast<size_t>(flags.Int("--queue", 64, 1, 1 << 20));
  server_options.default_deadline_ms =
      static_cast<uint64_t>(flags.Int("--deadline-ms", 0, 0, 3600 * 1000));
  serve::QueryRequest request;
  request.query = query_text;
  request.options.k = static_cast<size_t>(flags.Int("--topk", 10, 1, 1000));
  if (!flags.status().ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return Usage();
  }

  Result<std::string> contents = ReadFileToString(tsv_path);
  if (!contents.ok()) {
    std::fprintf(stderr, "%s\n", contents.status().ToString().c_str());
    return 1;
  }
  Result<datagen::ImportedCorpus> imported =
      datagen::ImportTsv(contents.value());
  if (!imported.ok()) {
    std::fprintf(stderr, "%s\n", imported.status().ToString().c_str());
    return 1;
  }
  const datagen::ImportedCorpus& corpus = imported.value();

  persist::DurabilityOptions durability;
  durability.checkpoint_every_ops = 2000;
  Result<std::unique_ptr<serve::ServingEngine>> opened =
      serve::ServingEngine::Open(wal_dir, server_options, durability);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  serve::ServingEngine& serving = *opened.value();

  // A fresh directory gets the corpus; a recorded one serves as-is.
  std::vector<Snippet> pending;
  if (serving.durable().next_lsn() == 0) {
    Status vocab = serving.durable().ImportVocabularies(
        *corpus.entity_vocabulary, *corpus.keyword_vocabulary);
    if (!vocab.ok()) {
      std::fprintf(stderr, "%s\n", vocab.ToString().c_str());
      return 1;
    }
    for (const SourceInfo& source : corpus.sources) {
      Result<SourceId> registered =
          serving.durable().RegisterSource(source.name);
      if (!registered.ok()) {
        std::fprintf(stderr, "%s\n",
                     registered.status().ToString().c_str());
        return 1;
      }
    }
    // Ingest the first half up front so readers have something to
    // query; the second half streams in batches while they run.
    size_t half = corpus.snippets.size() / 2;
    std::vector<Snippet> warmup;
    warmup.reserve(half);
    for (size_t i = 0; i < corpus.snippets.size(); ++i) {
      Snippet copy = corpus.snippets[i];
      copy.id = kInvalidSnippetId;
      (i < half ? warmup : pending).push_back(std::move(copy));
    }
    if (!warmup.empty()) {
      Result<std::vector<SnippetId>> added =
          serving.durable().AddSnippets(std::move(warmup));
      if (!added.ok()) {
        std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
        return 1;
      }
    }
    Status aligned = serving.durable().Align();
    if (!aligned.ok()) {
      std::fprintf(stderr, "%s\n", aligned.ToString().c_str());
      return 1;
    }
  } else {
    std::printf("%s already holds %llu ops — serving the recovered "
                "state without re-ingesting\n",
                wal_dir.c_str(),
                static_cast<unsigned long long>(
                    serving.durable().next_lsn()));
  }

  // Closed-loop readers: each issues the next query the moment the
  // previous one returns, for `seconds` of wall clock.
  std::atomic<bool> stop{false};
  std::vector<ReaderTally> tallies(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      ReaderTally& tally = tallies[r];
      while (!stop.load(std::memory_order_relaxed)) {
        WallTimer timer;
        Result<serve::QueryResponse> response = serving.Query(request);
        if (response.ok()) {
          ++tally.ok;
          tally.latencies_ms.push_back(timer.ElapsedMillis());
          if (response.value().from_cache) ++tally.cache_hits;
          uint64_t epoch = response.value().epoch;
          if (tally.min_epoch == 0 || epoch < tally.min_epoch) {
            tally.min_epoch = epoch;
          }
          tally.max_epoch = std::max(tally.max_epoch, epoch);
        } else if (response.status().code() == StatusCode::kUnavailable) {
          ++tally.unavailable;
        } else if (response.status().code() ==
                   StatusCode::kDeadlineExceeded) {
          ++tally.deadline;
        } else {
          ++tally.other;
        }
      }
    });
  }

  // The single writer: stream the held-back half in batches, each of
  // which publishes a new epoch under the readers.
  WallTimer wall;
  size_t ingested = 0;
  size_t write_batches = 0;
  while (wall.ElapsedSeconds() < seconds) {
    if (ingested < pending.size()) {
      size_t n = std::min(batch, pending.size() - ingested);
      std::vector<Snippet> chunk(pending.begin() + ingested,
                                 pending.begin() + ingested + n);
      Result<std::vector<SnippetId>> added =
          serving.durable().AddSnippets(std::move(chunk));
      if (!added.ok()) {
        std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
        break;
      }
      ingested += n;
      ++write_batches;
    } else {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  double elapsed = wall.ElapsedSeconds();

  ReaderTally total;
  for (ReaderTally& tally : tallies) {
    total.ok += tally.ok;
    total.cache_hits += tally.cache_hits;
    total.unavailable += tally.unavailable;
    total.deadline += tally.deadline;
    total.other += tally.other;
    if (tally.min_epoch != 0 &&
        (total.min_epoch == 0 || tally.min_epoch < total.min_epoch)) {
      total.min_epoch = tally.min_epoch;
    }
    total.max_epoch = std::max(total.max_epoch, tally.max_epoch);
    total.latencies_ms.insert(total.latencies_ms.end(),
                              tally.latencies_ms.begin(),
                              tally.latencies_ms.end());
  }

  serve::EpochManager::Stats epochs = serving.epochs().GetStats();
  serve::Server::Stats server = serving.server().GetStats();
  std::printf("served %llu queries in %.1f s (%.0f QPS) across %zu "
              "readers; %llu from cache\n",
              static_cast<unsigned long long>(total.ok), elapsed,
              static_cast<double>(total.ok) / elapsed, readers,
              static_cast<unsigned long long>(total.cache_hits));
  std::printf("latency: p50 %.2f ms, p99 %.2f ms\n",
              Percentile(&total.latencies_ms, 0.50),
              Percentile(&total.latencies_ms, 0.99));
  std::printf("writer: %zu batches (%zu snippets) ingested "
              "concurrently\n",
              write_batches, ingested);
  std::printf("epochs: served %llu..%llu; published %llu, reclaimed "
              "%llu, retired-live %zu\n",
              static_cast<unsigned long long>(total.min_epoch),
              static_cast<unsigned long long>(total.max_epoch),
              static_cast<unsigned long long>(epochs.published),
              static_cast<unsigned long long>(epochs.reclaimed),
              epochs.retired_live);
  std::printf("capture: %llu captures, last %.3f ms, mean %.3f ms; last "
              "publish copied %llu B, shared %llu B\n",
              static_cast<unsigned long long>(epochs.captures),
              epochs.last_capture_ms,
              epochs.captures == 0
                  ? 0.0
                  : epochs.total_capture_ms /
                        static_cast<double>(epochs.captures),
              static_cast<unsigned long long>(epochs.last_bytes_copied),
              static_cast<unsigned long long>(epochs.last_bytes_shared));
  std::printf("admission: %llu admitted, %llu shed (queue full), %llu "
              "deadline-expired; cache %llu/%llu hits, evicted %llu "
              "capacity / %llu epoch\n",
              static_cast<unsigned long long>(server.admitted),
              static_cast<unsigned long long>(server.rejected_queue_full),
              static_cast<unsigned long long>(server.deadline_exceeded),
              static_cast<unsigned long long>(server.cache.hits),
              static_cast<unsigned long long>(server.cache.hits +
                                              server.cache.misses),
              static_cast<unsigned long long>(server.cache.evicted_by_capacity),
              static_cast<unsigned long long>(server.cache.evicted_by_epoch));

  // Show the final-epoch answer so the demo ends with actual results.
  Result<serve::QueryResponse> last = serving.Query(request);
  if (last.ok()) {
    std::printf("top stories at epoch %llu:\n",
                static_cast<unsigned long long>(last.value().epoch));
    int rank = 0;
    for (const search::StoryHit& hit : last.value().hits) {
      std::printf("  #%d source=%llu story=%lld score=%.4f\n", ++rank,
                  static_cast<unsigned long long>(hit.source),
                  static_cast<long long>(hit.story), hit.score);
    }
  }
  return total.other == 0 ? 0 : 1;
}
