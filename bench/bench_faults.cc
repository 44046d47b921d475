// Fault-injection bench (DESIGN.md §12): what the failpoint framework
// costs when idle and what a fault costs when it strikes. Two
// experiments:
//
//   1. SP_FAILPOINT evaluation cost: the disarmed fast path (one relaxed
//      atomic load), the slow path taken while ANY site is armed, and an
//      armed-but-never-firing probability trigger on the hot site
//      itself. Built with -DSTORYPIVOT_FAILPOINTS=OFF the macro expands
//      to nothing and the same loop measures ~0 ns — the release
//      guarantee that `lint.failpoint_noop` proves at compile time.
//   2. Recovery latency after an injected mid-stream crash: a one-shot
//      fault degrades the engine at a chosen op; we then time Open()
//      replaying checkpoint + WAL tail back to the acknowledged prefix,
//      and SP_CHECK that it lands there.
//
// A full run (from the repo root) writes BENCH_faults.json next to the
// human-readable tables; --smoke (CI) runs fewer evaluations and a
// smaller corpus and prints the JSON instead of writing it.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "persist/durable_engine.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/logging.h"
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

std::vector<MacroResult> RunMacroBench(bool smoke) {
  // 8M evaluations keep each case under ~50 ms while averaging away
  // timer noise on the ~1 ns fast path.
  const size_t evals = smoke ? 1'000'000 : 8'000'000;
  failpoint::Registry& registry = failpoint::Registry::Instance();
  registry.DisarmAll();

  std::vector<MacroResult> results;
  std::printf("%28s %14s\n", "macro state", "ns/eval");

  results.push_back({"disarmed", MeasureEvalNs(evals)});

  // Arming a DIFFERENT site forces every evaluation down the slow path
  // (registry lookup) — the cost a disarmed hot site pays while a chaos
  // schedule is live elsewhere in the process.
  registry.Arm("bench.other", failpoint::Probability(0.0, 1));
  results.push_back({"armed-other-site", MeasureEvalNs(evals)});
  registry.DisarmAll();

  // Armed on the hot site itself but never firing: slow path plus the
  // per-site RNG draw.
  registry.Arm("bench.macro", failpoint::Probability(0.0, 1));
  results.push_back({"armed-zero-probability", MeasureEvalNs(evals)});
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

struct CrashResult {
  uint64_t crash_at_op = 0;
  uint64_t acked_ops = 0;
  double recover_ms = 0.0;
  uint64_t tail_ops = 0;
};

std::vector<CrashResult> RunCrashBench(const datagen::Corpus& corpus,
                                       bool smoke) {
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
  const std::vector<uint64_t> crash_points =
      smoke ? std::vector<uint64_t>{150, 550}
            : std::vector<uint64_t>{150, 900, 1990};
  for (uint64_t crash_at : crash_points) {
    std::string dir = FreshDir(StrFormat("crash_%llu",
                                         static_cast<unsigned long long>(
                                             crash_at)));
    persist::DurabilityOptions options;
    options.wal.fsync = persist::FsyncPolicy::kOnRotate;
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

void Run(bool smoke) {
  std::printf("== faults: failpoint cost, crash recovery ==\n\n");
  datagen::CorpusConfig corpus_config = Fig7CorpusConfig(smoke ? 600 : 2500);
  datagen::Corpus corpus =
      datagen::CorpusGenerator(corpus_config).Generate();

  std::vector<MacroResult> macro = RunMacroBench(smoke);
  std::vector<CrashResult> crashes = RunCrashBench(corpus, smoke);

  std::string json = StrFormat(
      "{\"bench\":\"faults\",\"smoke\":%s,\"hardware_threads\":%u,"
      "\"failpoints_compiled\":%s,\"macro_overhead\":[",
      smoke ? "true" : "false", std::thread::hardware_concurrency(),
      kFailpointsCompiled ? "true" : "false");
  for (size_t i = 0; i < macro.size(); ++i) {
    json += StrFormat("%s{\"case\":\"%s\",\"ns_per_eval\":%.3f}",
                      i == 0 ? "" : ",", macro[i].label.c_str(),
                      macro[i].ns_per_eval);
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
  RemoveDirRecursive("bench_faults_tmp");
  EmitBenchJson("BENCH_faults.json", json, smoke);
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
