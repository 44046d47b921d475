// Serving-tier bench (DESIGN.md §14): closed-loop readers against the
// epoch-pinned Server, sweeping reader count x read/write mix.
//
// Before any timing, the harness asserts correctness: a pinned
// ReadSnapshot must answer every workload query byte-identically to a
// fresh serial engine fed exactly the same acked operation prefix. Only
// then does it measure:
//
//   * read_only  — R closed-loop readers, no writer. Epochs never
//     advance, so the hot-query cache converges to ~100% hits.
//   * read_write — the same readers while the single writer streams
//     snippet batches, publishing a new epoch per acked batch. Every
//     epoch change invalidates the cache for free (epoch-prefixed
//     keys), so this measures the steady-state mix of fresh ranks and
//     hits under snapshot churn.
//
// Writes BENCH_serve.json. Run with --smoke for the CI-sized variant
// (small corpus, two reader counts, short cells, same assertions), which
// prints the JSON instead (EmitBenchJson).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "cow/stats.h"
#include "search/search_engine.h"
#include "serve/read_snapshot.h"
#include "serve/serving_engine.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot::bench {
namespace {

using search::SearchOptions;
using search::StoryHit;

// Scratch WAL directories live under one removable root (same idiom as
// bench_recovery / bench_faults), deleted at the end of Main() — a bench
// run must not leave litter in the working directory.
constexpr const char kScratchRoot[] = "bench_serve_tmp";

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(kScratchRoot) + "/wal_" + name;
  if (FileExists(dir)) {
    Result<std::vector<std::string>> names = ListDirectory(dir);
    SP_CHECK_OK(names);
    for (const std::string& entry : names.value()) {
      SP_CHECK_OK(RemoveFile(dir + "/" + entry));
    }
  }
  SP_CHECK_OK(CreateDirectories(dir));
  return dir;
}

void RemoveDirRecursive(const std::string& path) {
  if (!FileExists(path)) return;
  Result<std::vector<std::string>> names = ListDirectory(path);
  if (names.ok()) {  // A directory: empty it, then rmdir.
    for (const std::string& entry : names.value()) {
      RemoveDirRecursive(path + "/" + entry);
    }
    IgnoreError(RemoveDirectory(path));
    return;
  }
  IgnoreError(RemoveFile(path));
}

/// First half of the corpus (id-cleared) is the warmup batch every cell
/// ingests up front; the second half is what the writer streams during
/// read_write cells.
struct SplitCorpus {
  std::vector<Snippet> warmup;
  std::vector<Snippet> pending;
};

SplitCorpus Split(const datagen::Corpus& corpus) {
  SplitCorpus split;
  const size_t half = corpus.snippets.size() / 2;
  for (size_t i = 0; i < corpus.snippets.size(); ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    (i < half ? split.warmup : split.pending).push_back(std::move(copy));
  }
  return split;
}

/// The acked prefix every cell starts from: vocabularies, sources, the
/// warmup half as ONE batch, one Align. Returns the streamable rest.
std::vector<Snippet> IngestWarmup(const datagen::Corpus& corpus,
                                  persist::DurableEngine* durable) {
  SP_CHECK_OK(durable->ImportVocabularies(*corpus.entity_vocabulary,
                                          *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    SP_CHECK_OK(durable->RegisterSource(source.name));
  }
  SplitCorpus split = Split(corpus);
  SP_CHECK_OK(durable->AddSnippets(std::move(split.warmup)));
  SP_CHECK_OK(durable->Align());
  return std::move(split.pending);
}

/// Deterministic free-text workload: surfaces of terms that occur in
/// the warmup prefix, ranked by document frequency and strided so the
/// mix spans hot and selective terms (same scheme as bench_search).
std::vector<std::string> MakeWorkload(const StoryPivotEngine& engine,
                                      const search::SearchEngine& searcher,
                                      size_t count) {
  auto surfaces_by_df = [&](search::Field field,
                            const text::Vocabulary& vocabulary) {
    std::vector<std::pair<size_t, text::TermId>> terms;
    for (text::TermId id = 0; id < vocabulary.size(); ++id) {
      size_t df = searcher.index().DocumentFrequency(field, id);
      if (df > 0) terms.push_back({df, id});
    }
    std::sort(terms.begin(), terms.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    return terms;
  };
  auto entities =
      surfaces_by_df(search::Field::kEntity, engine.entity_vocabulary());
  auto keywords =
      surfaces_by_df(search::Field::kKeyword, engine.keyword_vocabulary());
  SP_CHECK(!entities.empty() && keywords.size() >= 2);

  std::vector<std::string> workload;
  for (size_t q = 0; q < count; ++q) {
    std::string query =
        engine.entity_vocabulary().TermOf(entities[(q * 7) % entities.size()]
                                              .second);
    for (size_t j = 0; j < 2; ++j) {
      query += ' ';
      query += engine.keyword_vocabulary().TermOf(
          keywords[(q * 5 + j * 3) % keywords.size()].second);
    }
    workload.push_back(std::move(query));
  }
  return workload;
}

/// The bench's correctness gate: every workload query answered from a
/// pinned snapshot must equal a fresh serial engine fed the same acked
/// prefix. Runs before any timing; a mismatch aborts the bench.
void AssertSnapshotMatchesSerialEngine(const datagen::Corpus& corpus,
                                       const std::vector<std::string>& workload,
                                       const SearchOptions& options,
                                       serve::ServingEngine* serving) {
  StoryPivotEngine serial;
  search::SearchEngine serial_search(&serial);
  SP_CHECK_OK(serial.ImportVocabularies(*corpus.entity_vocabulary,
                                        *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    serial.RegisterSource(source.name);
  }
  SP_CHECK_OK(serial.AddSnippets(Split(corpus).warmup));
  (void)serial.Align();

  std::shared_ptr<const serve::ReadSnapshot> snapshot =
      serving->epochs().Pin();
  SP_CHECK(snapshot != nullptr);
  size_t nonempty = 0;
  for (const std::string& query : workload) {
    std::vector<StoryHit> pinned = snapshot->Search(query, options);
    std::vector<StoryHit> serial_hits = serial_search.Search(query, options);
    SP_CHECK(pinned == serial_hits);
    if (!pinned.empty()) ++nonempty;
  }
  SP_CHECK(nonempty > 0);
  std::printf("equality gate: %zu queries, %zu non-empty, pinned snapshot "
              "== serial engine at acked prefix\n",
              workload.size(), nonempty);
}

struct CellResult {
  std::string mix;
  size_t readers = 0;
  uint64_t policy_ops = 1;
  uint64_t ok = 0;
  uint64_t shed = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t epochs_published = 0;
  uint64_t epochs_reclaimed = 0;
  size_t snippets_ingested = 0;
  // Capture observability (ISSUE PR 8): cost of keeping readers fresh.
  uint64_t captures = 0;
  double mean_capture_ms = 0.0;
  uint64_t bytes_copied = 0;
  uint64_t last_bytes_shared = 0;
  uint64_t cache_evicted_by_epoch = 0;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted->size()));
  if (idx >= sorted->size()) idx = sorted->size() - 1;
  return (*sorted)[idx];
}

CellResult RunCell(const datagen::Corpus& corpus,
                   const std::vector<std::string>& workload,
                   const SearchOptions& options, const std::string& mix,
                   size_t readers, double seconds, size_t write_batch,
                   serve::PublishPolicy policy = {}) {
  const std::string dir =
      FreshDir(mix + "_" + std::to_string(readers) + "_p" +
               std::to_string(policy.every_ops));
  serve::ServerOptions server_options;
  server_options.num_threads = 4;
  server_options.max_queued = 1024;
  server_options.cache_capacity = 256;
  persist::DurabilityOptions durability;
  durability.checkpoint_every_ops = 1 << 20;  // no mid-cell checkpoints
  Result<std::unique_ptr<serve::ServingEngine>> opened =
      serve::ServingEngine::Open(dir, server_options, durability, {},
                                 policy);
  SP_CHECK_OK(opened);
  serve::ServingEngine& serving = *opened.value();

  std::vector<Snippet> pending = IngestWarmup(corpus, &serving.durable());

  struct Tally {
    uint64_t ok = 0;
    uint64_t shed = 0;
    std::vector<double> latencies_ms;
  };
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Tally& tally = tallies[r];
      size_t next = r;  // offset per reader so caches are shared, not lockstep
      while (!stop.load(std::memory_order_relaxed)) {
        serve::QueryRequest request;
        request.query = workload[next++ % workload.size()];
        request.options = options;
        WallTimer timer;
        Result<serve::QueryResponse> response = serving.Query(request);
        if (response.ok()) {
          ++tally.ok;
          tally.latencies_ms.push_back(timer.ElapsedMillis());
        } else {
          ++tally.shed;
        }
      }
    });
  }

  WallTimer wall;
  size_t ingested = 0;
  if (mix == "read_write") {
    // The single writer: stream the held-back half, one acked batch =
    // one published epoch. Wraps around (fresh ids) if it drains early.
    size_t cursor = 0;
    while (wall.ElapsedSeconds() < seconds) {
      size_t n = std::min(write_batch, pending.size() - cursor);
      std::vector<Snippet> chunk;
      chunk.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        Snippet copy = pending[cursor + i];
        copy.id = kInvalidSnippetId;
        chunk.push_back(std::move(copy));
      }
      SP_CHECK_OK(serving.durable().AddSnippets(std::move(chunk)));
      ingested += n;
      cursor = (cursor + n) % pending.size();
    }
  } else {
    while (wall.ElapsedSeconds() < seconds) {
      std::this_thread::yield();
    }
  }
  serving.Flush();  // Publish any batched tail so readers saw it all.
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  const double elapsed = wall.ElapsedSeconds();

  CellResult cell;
  cell.mix = mix;
  cell.readers = readers;
  cell.policy_ops = policy.every_ops;
  std::vector<double> latencies;
  for (Tally& tally : tallies) {
    cell.ok += tally.ok;
    cell.shed += tally.shed;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
  }
  cell.qps = static_cast<double>(cell.ok) / elapsed;
  cell.p50_ms = Percentile(&latencies, 0.50);
  cell.p99_ms = Percentile(&latencies, 0.99);
  serve::Server::Stats server_stats = serving.server().GetStats();
  uint64_t lookups = server_stats.cache.hits + server_stats.cache.misses;
  cell.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(server_stats.cache.hits) /
                         static_cast<double>(lookups);
  serve::EpochManager::Stats epoch_stats = serving.epochs().GetStats();
  cell.epochs_published = epoch_stats.published;
  cell.epochs_reclaimed = epoch_stats.reclaimed;
  cell.snippets_ingested = ingested;
  cell.captures = epoch_stats.captures;
  cell.mean_capture_ms =
      epoch_stats.captures == 0
          ? 0.0
          : epoch_stats.total_capture_ms /
                static_cast<double>(epoch_stats.captures);
  cell.bytes_copied = epoch_stats.total_bytes_copied;
  cell.last_bytes_shared = epoch_stats.last_bytes_shared;
  cell.cache_evicted_by_epoch = server_stats.cache.evicted_by_epoch;
  return cell;
}

// ------------------------ Publish-cost sweep (PR 8) ------------------------

/// One measured point of the capture-cost curve: at `snippets` resident,
/// the mean wall cost of publishing after ONE acked op via the COW
/// capture (O(partitions) pointer copies).
struct PublishCostPoint {
  size_t snippets = 0;
  double incremental_ms = 0.0;
  uint64_t bytes_copied_per_op = 0;
  uint64_t snapshot_approx_bytes = 0;
};

/// Grows a plain (WAL-free) engine through the checkpoint sizes and at
/// each one measures per-op capture cost. COW capture is O(partitions)
/// pointer copies, so the cost must stay flat while the corpus grows
/// 10x; the bytes the op copies are recorded, not gated.
std::vector<PublishCostPoint> MeasurePublishCost(
    const std::vector<size_t>& checkpoints, int reps) {
  const size_t max_snippets = checkpoints.back();
  datagen::CorpusConfig config =
      Fig7CorpusConfig(static_cast<int>(max_snippets) + reps *
                       static_cast<int>(checkpoints.size()));
  config.num_stories =
      std::max(10, static_cast<int>(max_snippets) / 50);
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();

  StoryPivotEngine engine;
  search::SearchEngine searcher(&engine);
  SP_CHECK_OK(engine.ImportVocabularies(*corpus.entity_vocabulary,
                                        *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    engine.RegisterSource(source.name);
  }

  serve::CaptureContext context;
  std::vector<PublishCostPoint> points;
  size_t cursor = 0;
  for (size_t target : checkpoints) {
    // Bulk-ingest up to the checkpoint (large batches: this is setup,
    // not the measured path), keeping `reps` snippets for the per-op
    // capture loop below.
    while (cursor + static_cast<size_t>(reps) < target &&
           cursor < corpus.snippets.size()) {
      const size_t n =
          std::min<size_t>(5000, target - reps - cursor);
      std::vector<Snippet> batch;
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i, ++cursor) {
        Snippet copy = corpus.snippets[cursor];
        copy.id = kInvalidSnippetId;
        batch.push_back(std::move(copy));
      }
      SP_CHECK_OK(engine.AddSnippets(std::move(batch)));
    }

    PublishCostPoint point;
    // Steady-state warmup: the context caches the text state and the
    // first capture pays any one-time sharing setup.
    (void)serve::ReadSnapshot::Capture(engine, searcher.index(), &context);

    // Incremental: one acked op, one COW capture — the PR-8 serving
    // loop. The captured snapshots stay alive for the whole rep loop,
    // like a reader pinning every epoch at once.
    std::vector<std::unique_ptr<serve::ReadSnapshot>> pinned;
    const cow::CopyCounters before = cow::ReadCopyCounters();
    double incremental_total = 0.0;
    for (int r = 0; r < reps && cursor < corpus.snippets.size();
         ++r, ++cursor) {
      Snippet copy = corpus.snippets[cursor];
      copy.id = kInvalidSnippetId;
      SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
      WallTimer timer;
      pinned.push_back(
          serve::ReadSnapshot::Capture(engine, searcher.index(), &context));
      incremental_total += timer.ElapsedMillis();
    }
    const cow::CopyCounters after = cow::ReadCopyCounters();
    point.snippets = searcher.index().num_documents();
    point.incremental_ms =
        incremental_total / static_cast<double>(pinned.size());
    point.bytes_copied_per_op =
        (after.bytes - before.bytes) / pinned.size();
    point.snapshot_approx_bytes = pinned.back()->ApproxBytes();
    points.push_back(point);
  }
  return points;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const int target_snippets = smoke ? 1200 : 8000;
  const double seconds = smoke ? 0.3 : 2.0;
  const size_t num_queries = smoke ? 12 : 32;
  const size_t write_batch = 64;
  const std::vector<size_t> reader_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};

  datagen::CorpusConfig config = Fig7CorpusConfig(target_snippets);
  config.num_stories = std::max(10, target_snippets / 50);
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();

  // Build one serving stack just for the equality gate and workload
  // derivation; the timed cells each get a fresh directory.
  SearchOptions options;
  options.k = 10;
  std::vector<std::string> workload;
  {
    const std::string dir = FreshDir("gate");
    Result<std::unique_ptr<serve::ServingEngine>> opened =
        serve::ServingEngine::Open(dir);
    SP_CHECK_OK(opened);
    serve::ServingEngine& serving = *opened.value();
    IngestWarmup(corpus, &serving.durable());
    workload =
        MakeWorkload(serving.durable().engine(), serving.search(),
                     num_queries);
    AssertSnapshotMatchesSerialEngine(corpus, workload, options, &serving);
  }

  // Publish-cost curve: per-op COW capture cost while the corpus grows
  // 10x (to 1e5 snippets in the full run).
  const std::vector<size_t> checkpoints =
      smoke ? std::vector<size_t>{150, 500, 1500}
            : std::vector<size_t>{10000, 30000, 100000};
  const int capture_reps = smoke ? 8 : 16;
  std::printf("\nPublish cost: per-acked-op COW capture\n");
  std::printf("%10s %14s %14s\n", "snippets", "incremental ms",
              "copied B/op");
  std::vector<PublishCostPoint> curve =
      MeasurePublishCost(checkpoints, capture_reps);
  for (const PublishCostPoint& point : curve) {
    std::printf("%10zu %14.4f %14llu\n", point.snippets,
                point.incremental_ms,
                static_cast<unsigned long long>(point.bytes_copied_per_op));
  }
  // Gate: COW capture cost must stay flat (bounded ratio) across the 10x
  // corpus growth; an O(corpus) capture fails it. The floor damps
  // sub-20us timer noise.
  const double base = std::max(curve.front().incremental_ms, 0.02);
  SP_CHECK(curve.back().incremental_ms <= 8.0 * base);
  if (!smoke) SP_CHECK(curve.back().snippets >= 100000 - 100);

  std::printf("\nServing tier: %d snippets (half warmup), %.1fs cells, "
              "top-%zu\n",
              target_snippets, seconds, options.k);
  std::printf("%11s %8s %7s %10s %9s %9s %7s %7s %7s %9s %11s\n", "mix",
              "readers", "N ops", "QPS", "p50 ms", "p99 ms", "hit%",
              "epochs", "shed", "ingested", "capture ms");
  std::vector<CellResult> cells;
  auto run_row = [&](const char* mix, size_t readers,
                     serve::PublishPolicy policy) {
    CellResult cell = RunCell(corpus, workload, options, mix, readers,
                              seconds, write_batch, policy);
    std::printf(
        "%11s %8zu %7llu %10.0f %9.3f %9.3f %6.1f%% %7llu %7llu %9zu "
        "%11.4f\n",
        cell.mix.c_str(), cell.readers,
        static_cast<unsigned long long>(cell.policy_ops), cell.qps,
        cell.p50_ms, cell.p99_ms, 100.0 * cell.cache_hit_rate,
        static_cast<unsigned long long>(cell.epochs_published),
        static_cast<unsigned long long>(cell.shed), cell.snippets_ingested,
        cell.mean_capture_ms);
    cells.push_back(std::move(cell));
  };
  for (const char* mix : {"read_only", "read_write"}) {
    for (size_t readers : reader_counts) {
      run_row(mix, readers, serve::PublishPolicy{});
    }
  }
  // Publication-policy contrast: the same write mix, batched N=16. Fewer
  // epochs -> fewer cache invalidations, at bounded staleness.
  serve::PublishPolicy batched;
  batched.every_ops = 16;
  for (size_t readers : reader_counts) {
    run_row("read_write", readers, batched);
  }

  std::string json = StrFormat(
      "{\"bench\":\"serve\",\"smoke\":%s,\"hardware_threads\":%u,"
      "\"snippets\":%d,\"cell_seconds\":%.1f,\"k\":%zu,"
      "\"workload_queries\":%zu,"
      "\"equality_gate\":\"pinned snapshot == serial engine at acked "
      "prefix\",\"publish_cost\":[",
      smoke ? "true" : "false", std::thread::hardware_concurrency(),
      target_snippets, seconds, options.k, workload.size());
  for (size_t i = 0; i < curve.size(); ++i) {
    const PublishCostPoint& point = curve[i];
    json += StrFormat(
        "%s{\"snippets\":%zu,\"capture_incremental_ms\":%.4f,"
        "\"bytes_copied_per_op\":%llu,\"snapshot_approx_bytes\":%llu}",
        i == 0 ? "" : ",", point.snippets, point.incremental_ms,
        static_cast<unsigned long long>(point.bytes_copied_per_op),
        static_cast<unsigned long long>(point.snapshot_approx_bytes));
  }
  json += "],\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    json += StrFormat(
        "%s{\"mix\":\"%s\",\"readers\":%zu,\"publish_every_ops\":%llu,"
        "\"qps\":%.0f,"
        "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"cache_hit_rate\":%.3f,"
        "\"epochs_published\":%llu,\"epochs_reclaimed\":%llu,"
        "\"shed\":%llu,\"snippets_ingested\":%zu,"
        "\"captures\":%llu,\"mean_capture_ms\":%.4f,"
        "\"bytes_copied\":%llu,\"last_bytes_shared\":%llu,"
        "\"cache_evicted_by_epoch\":%llu}",
        i == 0 ? "" : ",", cell.mix.c_str(), cell.readers,
        static_cast<unsigned long long>(cell.policy_ops), cell.qps,
        cell.p50_ms, cell.p99_ms, cell.cache_hit_rate,
        static_cast<unsigned long long>(cell.epochs_published),
        static_cast<unsigned long long>(cell.epochs_reclaimed),
        static_cast<unsigned long long>(cell.shed), cell.snippets_ingested,
        static_cast<unsigned long long>(cell.captures),
        cell.mean_capture_ms,
        static_cast<unsigned long long>(cell.bytes_copied),
        static_cast<unsigned long long>(cell.last_bytes_shared),
        static_cast<unsigned long long>(cell.cache_evicted_by_epoch));
  }
  json += "]}\n";
  RemoveDirRecursive(kScratchRoot);
  EmitBenchJson("BENCH_serve.json", json, smoke);
  return 0;
}

}  // namespace
}  // namespace storypivot::bench

int main(int argc, char** argv) {
  return storypivot::bench::Main(argc, argv);
}
