// Fault-injection bench (DESIGN.md §12): what the failpoint framework
// costs when idle and what faults cost when they strike. Three
// experiments:
//
//   1. SP_FAILPOINT evaluation cost: the disarmed fast path (one relaxed
//      atomic load), the slow path taken while ANY site is armed, and an
//      armed-but-never-firing probability trigger on the hot site
//      itself. Built with -DSTORYPIVOT_FAILPOINTS=OFF the macro expands
//      to nothing and the same loop measures ~0 ns — the release
//      guarantee that `lint.failpoint_noop` proves at compile time.
//   2. WAL append latency under transient write faults at rates
//      {0%, 1%, 10%}: the price of retry/backoff on the ingest path. A
//      recording no-op sleep is installed so backoff is accounted, not
//      slept through.
//   3. Recovery latency after an injected mid-stream crash: a one-shot
//      permanent fault degrades the engine at a chosen op; we then time
//      Open() replaying checkpoint + WAL tail back to the acknowledged
//      prefix.
//
// Emits BENCH_faults.json next to the human-readable tables.

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "persist/durable_engine.h"
#include "persist/wal.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot::bench {
namespace {

#ifdef STORYPIVOT_FAILPOINTS
constexpr bool kFailpointsCompiled = true;
#else
constexpr bool kFailpointsCompiled = false;
#endif

std::string FreshDir(const std::string& name) {
  std::string dir = "bench_faults_tmp/" + name;
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

// Keeps the measured loop observable so the optimizer cannot delete it.
volatile uint64_t g_sink = 0;

/// One site evaluation through the production macro, exactly as fs.cc and
/// wal.cc use it.
Status EvaluateSite() {
  SP_FAILPOINT("bench.macro");
  return Status::OK();
}

double MeasureEvalNs(size_t evals) {
  uint64_t ok = 0;
  WallTimer timer;
  for (size_t i = 0; i < evals; ++i) {
    ok += EvaluateSite().ok() ? 1 : 0;
  }
  const double ms = timer.ElapsedMillis();
  g_sink = ok;
  return ms * 1e6 / static_cast<double>(evals);
}

struct MacroResult {
  std::string label;
  double ns_per_eval = 0.0;
};

std::vector<MacroResult> RunMacroBench() {
  // 8M evaluations keep each case under ~50 ms while averaging away
  // timer noise on the ~1 ns fast path.
  constexpr size_t kEvals = 8'000'000;
  failpoint::Registry& registry = failpoint::Registry::Instance();
  registry.DisarmAll();

  std::vector<MacroResult> results;
  std::printf("%28s %14s\n", "macro state", "ns/eval");

  results.push_back({"disarmed", MeasureEvalNs(kEvals)});

  // Arming a DIFFERENT site forces every evaluation down the slow path
  // (registry lookup) — the cost a disarmed hot site pays while a chaos
  // schedule is live elsewhere in the process.
  registry.Arm("bench.other", failpoint::Probability(0.0, 1));
  results.push_back({"armed-other-site", MeasureEvalNs(kEvals)});
  registry.DisarmAll();

  // Armed on the hot site itself but never firing: slow path plus the
  // per-site RNG draw.
  registry.Arm("bench.macro", failpoint::Probability(0.0, 1));
  results.push_back({"armed-zero-probability", MeasureEvalNs(kEvals)});
  registry.DisarmAll();

  for (const MacroResult& r : results) {
    std::printf("%28s %14.2f\n", r.label.c_str(), r.ns_per_eval);
  }
  if (!kFailpointsCompiled) {
    std::printf("  (STORYPIVOT_FAILPOINTS is OFF: the macro expands to "
                "nothing, so all cases measure the empty loop)\n");
  }
  std::printf("\n");
  return results;
}

struct AppendResult {
  double fault_rate = 0.0;
  size_t appends = 0;
  double mean_append_us = 0.0;
  double appends_per_s = 0.0;
  uint64_t retries = 0;
  uint64_t backoff_virtual_us = 0;
  uint64_t exhausted = 0;
};

std::vector<AppendResult> RunAppendBench() {
  constexpr size_t kAppends = 20'000;
  const std::string payload(64, 'x');
  std::vector<double> rates = {0.0};
  if (kFailpointsCompiled) {
    rates.push_back(0.01);
    rates.push_back(0.10);
  } else {
    std::printf("wal append: failpoints compiled out — measuring the "
                "fault-free baseline only\n");
  }

  std::vector<AppendResult> results;
  std::printf("%12s %10s %14s %12s %10s %14s %10s\n", "fault rate",
              "appends", "mean us/app", "appends/s", "retries",
              "backoff us*", "exhausted");
  for (double rate : rates) {
    std::string dir = FreshDir(StrFormat("append_%d",
                                         static_cast<int>(rate * 100)));
    persist::WalOptions options;
    options.fsync = persist::FsyncPolicy::kOnRotate;
    uint64_t virtual_backoff = 0;
    options.retry_sleep = [&virtual_backoff](uint64_t micros) {
      virtual_backoff += micros;
    };
    Result<std::unique_ptr<persist::WriteAheadLog>> opened =
        persist::WriteAheadLog::Open(dir, options, 0);
    SP_CHECK_OK(opened.status());
    persist::WriteAheadLog& wal = *opened.value();

    failpoint::Registry& registry = failpoint::Registry::Instance();
    registry.DisarmAll();
    if (rate > 0.0) {
      registry.Arm("fs.append.write",
                   failpoint::Probability(rate, 42, /*transient=*/true));
    }

    // At 10% with max_attempts=4 about 1 in 10^4 appends exhausts its
    // retries; the failed append withdrew the record, so the app-level
    // loop simply re-submits it at the same lsn.
    uint64_t exhausted = 0;
    WallTimer timer;
    for (size_t i = 0; i < kAppends; ++i) {
      for (;;) {
        Result<uint64_t> lsn = wal.Append(payload);
        if (lsn.ok()) break;
        ++exhausted;
      }
    }
    const double ms = timer.ElapsedMillis();
    registry.DisarmAll();

    AppendResult r;
    r.fault_rate = rate;
    r.appends = kAppends;
    r.mean_append_us = ms * 1000.0 / static_cast<double>(kAppends);
    r.appends_per_s = 1000.0 * static_cast<double>(kAppends) / ms;
    r.retries = wal.retry_stats().retries;
    r.backoff_virtual_us = virtual_backoff;
    r.exhausted = exhausted;
    SP_CHECK_OK(wal.Close());
    std::printf("%11.0f%% %10zu %14.2f %12.0f %10llu %14llu %10llu\n",
                rate * 100.0, r.appends, r.mean_append_us, r.appends_per_s,
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.backoff_virtual_us),
                static_cast<unsigned long long>(r.exhausted));
    results.push_back(r);
  }
  std::printf("  (* backoff is requested from a recording no-op sleep, "
              "not slept)\n\n");
  return results;
}

struct CrashResult {
  uint64_t crash_at_op = 0;
  uint64_t acked_ops = 0;
  double recover_ms = 0.0;
  uint64_t tail_ops = 0;
};

std::vector<CrashResult> RunCrashBench(const datagen::Corpus& corpus) {
  std::vector<CrashResult> results;
  if (!kFailpointsCompiled) {
    std::printf("crash recovery: failpoints compiled out — skipped\n\n");
    return results;
  }
  failpoint::Registry& registry = failpoint::Registry::Instance();

  std::printf("%12s %12s %14s %12s\n", "crash at op", "acked ops",
              "recover ms", "tail ops");
  // Ops 1..11 are vocabularies + sources; the rest are snippets. The
  // engine checkpoints every 500 ops, so the replayed tail length cycles
  // with the crash position.
  for (uint64_t crash_at : {150ull, 900ull, 1990ull}) {
    std::string dir = FreshDir(StrFormat("crash_%llu",
                                         static_cast<unsigned long long>(
                                             crash_at)));
    persist::DurabilityOptions options;
    options.wal.fsync = persist::FsyncPolicy::kOnRotate;
    options.wal.retry_sleep = [](uint64_t) {};
    options.checkpoint_every_ops = 500;

    registry.DisarmAll();
    registry.Arm("wal.append", failpoint::OneShot(crash_at));
    uint64_t acked = 0;
    {
      Result<std::unique_ptr<persist::DurableEngine>> opened =
          persist::DurableEngine::Open(dir, options);
      SP_CHECK_OK(opened.status());
      persist::DurableEngine& durable = *opened.value();
      Status status = durable.ImportVocabularies(
          *corpus.entity_vocabulary, *corpus.keyword_vocabulary);
      if (status.ok()) ++acked;
      for (size_t i = 0; status.ok() && i < corpus.sources.size(); ++i) {
        status = durable.RegisterSource(corpus.sources[i].name).status();
        if (status.ok()) ++acked;
      }
      for (size_t i = 0; status.ok() && i < corpus.snippets.size(); ++i) {
        Snippet copy = corpus.snippets[i];
        copy.id = kInvalidSnippetId;
        status = durable.AddSnippet(std::move(copy)).status();
        if (status.ok()) ++acked;
      }
      // The injected one-shot fault must have degraded the engine.
      SP_CHECK(status.code() == StatusCode::kDegraded);
      // Scope exit "crashes" the degraded engine; the on-disk state is
      // the acknowledged prefix.
    }
    registry.DisarmAll();

    CrashResult r;
    r.crash_at_op = crash_at;
    r.acked_ops = acked;
    WallTimer timer;
    Result<std::unique_ptr<persist::DurableEngine>> recovered =
        persist::DurableEngine::Open(dir, options);
    SP_CHECK_OK(recovered.status());
    r.recover_ms = timer.ElapsedMillis();
    // Recovery must land exactly on the acknowledged prefix.
    SP_CHECK(recovered.value()->next_lsn() == acked);
    r.tail_ops = recovered.value()->ops_since_checkpoint();
    SP_CHECK_OK(recovered.value()->Close());
    std::printf("%12llu %12llu %14.1f %12llu\n",
                static_cast<unsigned long long>(r.crash_at_op),
                static_cast<unsigned long long>(r.acked_ops), r.recover_ms,
                static_cast<unsigned long long>(r.tail_ops));
    results.push_back(r);
  }
  std::printf("\n");
  return results;
}

void Run() {
  std::printf("== faults: failpoint cost, retry latency, crash recovery "
              "==\n\n");
  datagen::CorpusConfig corpus_config = Fig7CorpusConfig(2500);
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();

  std::vector<MacroResult> macro = RunMacroBench();
  std::vector<AppendResult> appends = RunAppendBench();
  std::vector<CrashResult> crashes = RunCrashBench(corpus);

  std::string json = StrFormat(
      "{\"bench\":\"faults\",\"hardware_threads\":%u,"
      "\"failpoints_compiled\":%s,\"macro_overhead\":[",
      std::thread::hardware_concurrency(),
      kFailpointsCompiled ? "true" : "false");
  for (size_t i = 0; i < macro.size(); ++i) {
    json += StrFormat("%s{\"case\":\"%s\",\"ns_per_eval\":%.3f}",
                      i == 0 ? "" : ",", macro[i].label.c_str(),
                      macro[i].ns_per_eval);
  }
  json += "],\"wal_append\":[";
  for (size_t i = 0; i < appends.size(); ++i) {
    const AppendResult& r = appends[i];
    json += StrFormat(
        "%s{\"fault_rate\":%.2f,\"appends\":%zu,\"mean_append_us\":%.3f,"
        "\"appends_per_s\":%.1f,\"retries\":%llu,"
        "\"backoff_virtual_us\":%llu,\"exhausted\":%llu}",
        i == 0 ? "" : ",", r.fault_rate, r.appends, r.mean_append_us,
        r.appends_per_s, static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.backoff_virtual_us),
        static_cast<unsigned long long>(r.exhausted));
  }
  json += "],\"recovery\":[";
  for (size_t i = 0; i < crashes.size(); ++i) {
    const CrashResult& r = crashes[i];
    json += StrFormat(
        "%s{\"crash_at_op\":%llu,\"acked_ops\":%llu,\"recover_ms\":%.2f,"
        "\"tail_ops\":%llu}",
        i == 0 ? "" : ",",
        static_cast<unsigned long long>(r.crash_at_op),
        static_cast<unsigned long long>(r.acked_ops), r.recover_ms,
        static_cast<unsigned long long>(r.tail_ops));
  }
  json += "]}\n";
  SP_CHECK_OK(WriteStringToFile("BENCH_faults.json", json));
  std::printf("wrote BENCH_faults.json\n");

  RemoveDirRecursive("bench_faults_tmp");
}

}  // namespace
}  // namespace storypivot::bench

int main() {
  storypivot::bench::Run();
  return 0;
}
