// Durability bench (DESIGN.md §10): what write-ahead logging costs on the
// ingest path, and what checkpoints and recovery cost. Five experiments:
//
//   1. Logged-ingest throughput across fsync policies (every-record,
//      every-64, on-rotate) against the plain in-memory engine baseline —
//      the price of the durability guarantee per acknowledged op.
//   2. Recovery latency as a function of WAL length when the whole state
//      must be replayed (no checkpoint).
//   3. Recovery latency for the same stream with a checkpoint near the
//      end — the case periodic checkpointing keeps us in.
//   4. Checkpoint save and load on a 10k-snippet GDELT-preset engine
//      after Align() and Refine(): SaveSnapshot and LoadSnapshot ms and
//      the file's bytes.
//   5. Recovery of a log shaped like a serving restart: a checkpoint
//      after the first quarter of that corpus, the second quarter as WAL
//      tail, then a logged Align(). Recovery owes the alignment; the
//      first alignment() read pays it.
//
// Every time is the median of kRuns runs. Writes BENCH_recovery.json; with
// --smoke (CI) the corpora shrink and the JSON is printed instead
// (EmitBenchJson).

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/snapshot.h"
#include "persist/durable_engine.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot::bench {
namespace {

/// Runs per measurement; every time reported is their median.
constexpr int kRuns = 5;

/// Snippets per AddSnippets batch in experiments 4 and 5, as perfbench
/// ingests.
constexpr size_t kBatch = 512;

/// Median wall time of kRuns calls of `run`, in ms.
double MedianMillis(const std::function<void()>& run) {
  std::vector<double> ms;
  for (int i = 0; i < kRuns; ++i) {
    WallTimer timer;
    run();
    ms.push_back(timer.ElapsedMillis());
  }
  return Summarize(ms).median;
}

std::string FreshDir(const std::string& name) {
  std::string dir = "bench_recovery_tmp/" + name;
  if (FileExists(dir)) {
    Result<std::vector<std::string>> names = ListDirectory(dir);
    SP_CHECK_OK(names.status());
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

struct IngestResult {
  std::string policy;
  double ingest_ms = 0.0;
  double ops_per_s = 0.0;
  double overhead_vs_plain = 0.0;
  uint64_t wal_bytes = 0;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  Result<std::vector<std::string>> names = ListDirectory(dir);
  SP_CHECK_OK(names.status());
  for (const std::string& entry : names.value()) {
    Result<uint64_t> size = FileSize(dir + "/" + entry);
    if (size.ok()) total += size.value();
  }
  return total;
}

/// Imports the corpus vocabularies and registers its sources.
void Register(const datagen::Corpus& corpus,
              persist::DurableEngine* durable) {
  SP_CHECK_OK(durable->ImportVocabularies(*corpus.entity_vocabulary,
                                          *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    SP_CHECK_OK(durable->RegisterSource(source.name));
  }
}

/// Logs snippets [begin, end) of the corpus, one AddSnippet each.
void AddEach(const datagen::Corpus& corpus, size_t begin, size_t end,
             persist::DurableEngine* durable) {
  for (size_t i = begin; i < end; ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(durable->AddSnippet(std::move(copy)));
  }
}

/// Logs snippets [begin, end) of the corpus in kBatch-snippet batches.
void AddBatches(const datagen::Corpus& corpus, size_t begin, size_t end,
                persist::DurableEngine* durable) {
  for (size_t i = begin; i < end; i += kBatch) {
    std::vector<Snippet> batch(
        corpus.snippets.begin() + static_cast<long>(i),
        corpus.snippets.begin() + static_cast<long>(std::min(end, i + kBatch)));
    for (Snippet& snippet : batch) snippet.id = kInvalidSnippetId;
    SP_CHECK_OK(durable->AddSnippets(std::move(batch)));
  }
}

std::unique_ptr<persist::DurableEngine> OpenDurable(
    const std::string& dir, const persist::DurabilityOptions& options) {
  Result<std::unique_ptr<persist::DurableEngine>> opened =
      persist::DurableEngine::Open(dir, options);
  SP_CHECK_OK(opened.status());
  return std::move(opened).value();
}

/// Feeds the corpus through a DurableEngine under `options`; returns the
/// wall time of the whole logged ingest.
double LoggedIngestMillis(const datagen::Corpus& corpus,
                          const std::string& dir,
                          const persist::DurabilityOptions& options) {
  std::unique_ptr<persist::DurableEngine> durable = OpenDurable(dir, options);
  WallTimer timer;
  Register(corpus, durable.get());
  AddEach(corpus, 0, corpus.snippets.size(), durable.get());
  const double elapsed = timer.ElapsedMillis();
  SP_CHECK_OK(durable->Close());
  return elapsed;
}

struct RecoveryResult {
  size_t ops = 0;
  bool checkpointed = false;
  double recover_ms = 0.0;
  double replay_ops_per_s = 0.0;
};

/// Median time of `DurableEngine::Open` on `dir`, which must recover
/// `replayed` WAL records.
RecoveryResult TimeRecovery(const std::string& dir,
                            const persist::DurabilityOptions& options,
                            uint64_t replayed) {
  RecoveryResult r;
  r.recover_ms = MedianMillis([&] {
    std::unique_ptr<persist::DurableEngine> recovered =
        OpenDurable(dir, options);
    SP_CHECK(recovered->ops_since_checkpoint() == replayed);
    SP_CHECK_OK(recovered->Close());
  });
  r.replay_ops_per_s = 1000.0 * static_cast<double>(replayed) / r.recover_ms;
  return r;
}

/// The GDELT preset at `snippets` snippets, the corpus shape perfbench
/// runs.
datagen::Corpus GdeltCorpus(int snippets) {
  datagen::CorpusConfig config = datagen::GdeltScalePreset();
  config.target_num_snippets = snippets;
  return datagen::CorpusGenerator(config).Generate();
}

/// Experiment 4: SaveSnapshot / LoadSnapshot of an aligned, refined
/// engine.
std::string CheckpointRow(const datagen::Corpus& corpus,
                          const persist::DurabilityOptions& options) {
  const std::string dir = FreshDir("checkpoint_codec");
  std::unique_ptr<persist::DurableEngine> durable = OpenDurable(dir, options);
  Register(corpus, durable.get());
  AddBatches(corpus, 0, corpus.snippets.size(), durable.get());
  SP_CHECK_OK(durable->Align());
  const Result<RefinementStats> refined = durable->Refine();
  SP_CHECK_OK(refined.status());
  const StoryPivotEngine& engine = durable->engine();
  std::string saved;
  const double save_ms = MedianMillis([&] { saved = SaveSnapshot(engine); });
  std::vector<double> load_runs;
  for (int run = 0; run < kRuns; ++run) {
    WallTimer timer;
    Result<std::unique_ptr<StoryPivotEngine>> loaded = LoadSnapshot(saved);
    load_runs.push_back(timer.ElapsedMillis());
    SP_CHECK_OK(loaded.status());
    SP_CHECK(EngineStateFingerprint(*loaded.value()) ==
             EngineStateFingerprint(engine));
  }
  const double load_ms = Summarize(load_runs).median;
  const size_t snippets = engine.store().size();
  SP_CHECK_OK(durable->Close());
  std::printf("\ncheckpoint of %zu snippets: %zu bytes, save %.1f ms, "
              "load %.1f ms\n",
              snippets, saved.size(), save_ms, load_ms);
  return StrFormat(
      "{\"snippets\":%zu,\"bytes\":%zu,\"save_ms\":%.2f,\"load_ms\":%.2f}",
      snippets, saved.size(), save_ms, load_ms);
}

/// Experiment 5: recovery of checkpoint + tail + a logged Align(), then
/// the first alignment() read.
std::string RecoveryAfterAlignRow(const datagen::Corpus& corpus,
                                  const persist::DurabilityOptions& options) {
  const size_t quarter = corpus.snippets.size() / 4;
  const size_t half = corpus.snippets.size() / 2;
  const std::string dir = FreshDir("after_align");
  uint64_t tail_ops = 0;
  size_t integrated = 0;
  {
    std::unique_ptr<persist::DurableEngine> durable =
        OpenDurable(dir, options);
    Register(corpus, durable.get());
    AddBatches(corpus, 0, quarter, durable.get());
    SP_CHECK_OK(durable->Checkpoint());
    AddBatches(corpus, quarter, half, durable.get());
    SP_CHECK_OK(durable->Align());
    integrated = durable->engine().alignment().stories.size();
    tail_ops = durable->ops_since_checkpoint();
    SP_CHECK_OK(durable->Close());
  }
  const RecoveryResult r = TimeRecovery(dir, options, tail_ops);
  std::vector<double> read_runs;
  for (int run = 0; run < kRuns; ++run) {
    std::unique_ptr<persist::DurableEngine> recovered =
        OpenDurable(dir, options);
    WallTimer timer;
    const size_t stories = recovered->engine().alignment().stories.size();
    read_runs.push_back(timer.ElapsedMillis());
    SP_CHECK(stories == integrated);
    SP_CHECK_OK(recovered->Close());
  }
  const double first_read_ms = Summarize(read_runs).median;
  std::printf("recovery of %zu snippets ending in a logged Align() (%llu "
              "tail ops): %.1f ms; first alignment() read: %.1f ms\n",
              half, static_cast<unsigned long long>(tail_ops), r.recover_ms,
              first_read_ms);
  return StrFormat(
      "{\"snippets\":%zu,\"tail_ops\":%llu,\"integrated_stories\":%zu,"
      "\"recover_ms\":%.2f,\"first_read_ms\":%.2f}",
      half, static_cast<unsigned long long>(tail_ops), integrated,
      r.recover_ms, first_read_ms);
}

void Run(bool smoke) {
  std::printf("== durability: WAL cost, checkpoints and recovery "
              "latency ==\n\n");
  datagen::Corpus corpus =
      datagen::CorpusGenerator(Fig7CorpusConfig(smoke ? 600 : 6000))
          .Generate();
  const size_t total_ops =
      corpus.snippets.size() + corpus.sources.size() + 1;

  // ---- 1. Logged-ingest throughput by fsync policy.
  const double plain_ms = MedianMillis([&] {
    StoryPivotEngine plain;
    SP_CHECK_OK(plain.ImportVocabularies(*corpus.entity_vocabulary,
                                         *corpus.keyword_vocabulary));
    for (const SourceInfo& s : corpus.sources) plain.RegisterSource(s.name);
    for (const Snippet& snippet : corpus.snippets) {
      Snippet copy = snippet;
      copy.id = kInvalidSnippetId;
      SP_CHECK_OK(plain.AddSnippet(std::move(copy)));
    }
  });
  std::printf("plain engine baseline: %zu ops in %.1f ms (%.0f ops/s)\n\n",
              total_ops, plain_ms, 1000.0 * total_ops / plain_ms);

  struct Policy {
    const char* name;
    persist::FsyncPolicy fsync;
  };
  const Policy policies[] = {
      {"every-record", persist::FsyncPolicy::kEveryRecord},
      {"every-64", persist::FsyncPolicy::kEveryN},
      {"on-rotate", persist::FsyncPolicy::kOnRotate},
  };
  std::vector<IngestResult> ingest;
  std::printf("%14s %12s %12s %14s %12s\n", "fsync policy", "ingest ms",
              "ops/s", "vs plain", "wal bytes");
  for (const Policy& policy : policies) {
    persist::DurabilityOptions options;
    options.wal.fsync = policy.fsync;
    IngestResult r;
    r.policy = policy.name;
    std::string dir;
    std::vector<double> ms;
    for (int run = 0; run < kRuns; ++run) {
      dir = FreshDir(std::string("ingest_") + policy.name);
      ms.push_back(LoggedIngestMillis(corpus, dir, options));
    }
    r.ingest_ms = Summarize(ms).median;
    r.ops_per_s = 1000.0 * total_ops / r.ingest_ms;
    r.overhead_vs_plain = r.ingest_ms / plain_ms;
    r.wal_bytes = DirBytes(dir);
    std::printf("%14s %12.1f %12.0f %13.2fx %12llu\n", policy.name,
                r.ingest_ms, r.ops_per_s, r.overhead_vs_plain,
                static_cast<unsigned long long>(r.wal_bytes));
    ingest.push_back(r);
  }

  // ---- 2. Full-replay recovery latency vs log length.
  persist::DurabilityOptions options;
  options.wal.fsync = persist::FsyncPolicy::kOnRotate;
  std::vector<RecoveryResult> recoveries;
  std::printf("\n%10s %14s %12s %14s\n", "log ops", "checkpoint?",
              "recover ms", "replay ops/s");
  const std::vector<size_t> lengths =
      smoke ? std::vector<size_t>{100, 200, 400}
            : std::vector<size_t>{1000, 2000, 4000};
  for (size_t target : lengths) {
    std::string dir = FreshDir(StrFormat("replay_%zu", target));
    {
      std::unique_ptr<persist::DurableEngine> durable =
          OpenDurable(dir, options);
      Register(corpus, durable.get());
      AddEach(corpus, 0, target, durable.get());
      SP_CHECK_OK(durable->Close());
    }
    RecoveryResult r =
        TimeRecovery(dir, options, target + corpus.sources.size() + 1);
    r.ops = target;
    std::printf("%10zu %14s %12.1f %14.0f\n", r.ops, "no", r.recover_ms,
                r.replay_ops_per_s);
    recoveries.push_back(r);
  }

  // ---- 3. The same stream with a checkpoint near the end: recovery is
  // snapshot load + short tail replay, independent of history length.
  {
    const size_t target = lengths.back();
    const size_t tail = target / 40;
    std::string dir = FreshDir("checkpointed");
    {
      std::unique_ptr<persist::DurableEngine> durable =
          OpenDurable(dir, options);
      Register(corpus, durable.get());
      AddEach(corpus, 0, target - tail, durable.get());
      SP_CHECK_OK(durable->Checkpoint());
      AddEach(corpus, target - tail, target, durable.get());
      SP_CHECK_OK(durable->Close());
    }
    RecoveryResult r = TimeRecovery(dir, options, tail);
    r.ops = target;
    r.checkpointed = true;
    std::printf("%10zu %14s %12.1f %14s\n", r.ops,
                StrFormat("yes (tail %zu)", tail).c_str(), r.recover_ms,
                "-");
    recoveries.push_back(r);
  }

  // ---- 4 and 5. Checkpoint codec and the serving restart's recovery.
  const datagen::Corpus gdelt = GdeltCorpus(smoke ? 1000 : 10000);
  const std::string checkpoint = CheckpointRow(gdelt, options);
  const std::string after_align = RecoveryAfterAlignRow(gdelt, options);

  std::string json = StrFormat(
      "{\"bench\":\"recovery\",\"smoke\":%s,\"hardware_threads\":%u,"
      "\"runs\":%d,\"total_ops\":%zu,\"plain_ingest_ms\":%.2f,\"ingest\":[",
      smoke ? "true" : "false", std::thread::hardware_concurrency(), kRuns,
      total_ops, plain_ms);
  for (size_t i = 0; i < ingest.size(); ++i) {
    const IngestResult& r = ingest[i];
    json += StrFormat(
        "%s{\"fsync\":\"%s\",\"ingest_ms\":%.2f,\"ops_per_s\":%.1f,"
        "\"overhead_vs_plain\":%.3f,\"wal_bytes\":%llu}",
        i == 0 ? "" : ",", r.policy.c_str(), r.ingest_ms, r.ops_per_s,
        r.overhead_vs_plain, static_cast<unsigned long long>(r.wal_bytes));
  }
  json += "],\"recovery\":[";
  for (size_t i = 0; i < recoveries.size(); ++i) {
    const RecoveryResult& r = recoveries[i];
    json += StrFormat(
        "%s{\"log_ops\":%zu,\"checkpointed\":%s,\"recover_ms\":%.2f,"
        "\"replay_ops_per_s\":%.1f}",
        i == 0 ? "" : ",", r.ops, r.checkpointed ? "true" : "false",
        r.recover_ms, r.replay_ops_per_s);
  }
  json += "],\"checkpoint\":" + checkpoint +
          ",\"recovery_after_align\":" + after_align + "}\n";
  RemoveDirRecursive("bench_recovery_tmp");
  EmitBenchJson("BENCH_recovery.json", json, smoke);
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
