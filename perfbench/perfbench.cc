// StoryPivot end-to-end benchmark. Two workloads drive the library only
// through its public calls, one for each kind of user:
//
//   detect_batch  an analyst turns a TSV corpus into aligned, refined
//                 stories (the paper's Fig. 7 pipeline), then queries them.
//   serve_live    a deployment restarts from its data directory, then
//                 takes a live news feed while analysts query beside it.
//
// Usage (run.py builds this and passes the data directory):
//   perfbench --workload detect_batch|serve_live --seed N --seconds S
//             --trace 0|1 --data-dir DIR [--trace-out FILE]
//
// The corpus is generated from the seed and written as TSV before the
// program's part starts; the program's part reads only that file. Every
// metric line is flushed as it is produced, and the last line is one JSON
// object. A failed correctness gate is named and exits 1. README.md gives
// the metric definitions and why each workload exists.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/statfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "cow/stats.h"
#include "datagen/corpus.h"
#include "datagen/gdelt_export.h"
#include "eval/experiment.h"
#include "persist/durable_engine.h"
#include "search/postings_index.h"
#include "search/search_engine.h"
#include "serve/read_snapshot.h"
#include "serve/serving_engine.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {
namespace {

namespace sp = storypivot;
namespace fs = std::filesystem;

// --- Workload shape (README.md explains each choice) --------------------

/// Snippets per corpus, from GdeltScalePreset() (50 sources, 500
/// entities, 400 stories) scaled down.
constexpr int kDetectSnippets = 12000;
constexpr int kServeSnippets = 10000;
/// serve_live scores quality over this many corpora: the ones it serves
/// and more whose feed is only replayed. One corpus's SI-F1 ranged
/// 0.41-0.94, too wide for a median over the few a run can serve
/// (README.md, Noise).
constexpr int kServeQualityCorpora = 10;
/// detect_batch ingests in bulk batches on the engine's parallel paths.
constexpr size_t kIngestBatch = 512;
/// serve_live's writer: one 16-snippet op every 10 ms, open loop.
constexpr size_t kLiveBatch = 16;
constexpr int64_t kLiveIntervalNs = 10'000'000;
/// An op issued more than this after its due time counts as late.
constexpr double kLateThresholdMs = 1.0;
/// serve_live's readers: 2 closed-loop clients on a 2-thread server.
constexpr size_t kClients = 2;
constexpr size_t kServerThreads = 2;
constexpr size_t kServerQueue = 64;
constexpr size_t kServerCache = 128;
constexpr size_t kDistinctQueries = 2000;
constexpr double kZipfExponent = 1.0;
constexpr sp::Timestamp kWindowHalf = 7 * sp::kSecondsPerDay;
/// Every corpus is processed this many times, in passes over all of the
/// run's corpora, so the passes of one corpus fall at different moments
/// of the run and a burst of host load hits only one of them.
constexpr int kDetectPasses = 3;
constexpr int kServePasses = 3;
/// Measured seconds one pass of one corpus takes on a 4-vCPU VM: a run of
/// --seconds S processes S / (passes x this) corpora.
constexpr double kDetectPassSeconds = 2.2;
constexpr double kServePassSeconds = 5.0;
/// Every run starts with one small corpus through the detect pipeline,
/// untimed: in a fresh process the first pass ran its parallel phases up
/// to 2x slower than later ones.
constexpr int kWarmupSnippets = 4000;

/// The WAL fsyncs only at segment rotation and Close(). The data
/// directories must stay inside the benchmark's checkout, whose file system
/// is unknown; on a virtio ext4 disk, per-record fdatasync spikes stalled
/// up to a quarter of serve_live's writer ops past 6 ms. On tmpfs
/// fdatasync costs nothing, so this measures what a tmpfs data directory
/// would, on any file system (README.md, Noise).
sp::persist::DurabilityOptions Durability() {
  sp::persist::DurabilityOptions options;
  options.wal.fsync = sp::persist::FsyncPolicy::kOnRotate;
  return options;
}

/// detect_batch's engine threads: half the hardware threads (2 on a
/// 4-vCPU VM). With every vCPU busy the parallel phases waited on host
/// scheduling: the 512-snippet batch ack moved from 4.5 to 14 ms with
/// host load at 4 threads, against 8.4-11.9 ms at 2 (README.md, Noise).
size_t DetectThreads() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (args->workload == "detect_batch" ||
          args->workload == "serve_live") &&
         have_seed && have_seconds && have_trace && !args->data_dir.empty();
}

// --- Results -------------------------------------------------------------

/// Operations attempted and failed, and the gates that failed. Failures
/// are non-OK writes, rejected or expired queries, and failed gates.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failed_gates;

  /// Records one correctness gate; a failure is printed at once.
  bool Gate(bool ok, const std::string& name) {
    ++attempted;
    if (!ok) {
      ++failed;
      failed_gates.push_back(name);
      std::printf("GATE FAILED: %s\n", name.c_str());
    }
    return ok;
  }

  /// Records one operation of the workload.
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Per-corpus values of each metric, whose median a run reports, and
/// latency samples pooled over the run, for the ungated p99 and for
/// percentiles a single corpus gives too few samples for.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double MedianOf(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : Median(it->second);
  }

  void Pool(const std::string& name, const std::vector<double>& samples) {
    std::vector<double>& pool = pooled_[name];
    pool.insert(pool.end(), samples.begin(), samples.end());
  }
  Quantile PooledPercentile(const std::string& name, double q) const {
    auto it = pooled_.find(name);
    return it == pooled_.end() ? Quantile{} : Percentile(it->second, q);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
  std::map<std::string, std::vector<double>> pooled_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Both lists must match BENCHMARK.json: a --trace 0 run reports every
// end-to-end metric and a --trace 1 run every per-layer metric. A layer
// that a workload does not exercise reports 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"detect_s", "s"},
    {"si_f1", "F1"},            {"sa_f1", "F1"},
    {"disk_bytes_per_snippet", "B"},
    {"peak_rss_mb", "MB"},      {"query_p50_ms", "ms"},
    {"query_p90_ms", "ms"},     {"query_qps", "1/s"},
    {"write_p50_ms", "ms"},     {"write_p90_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"datagen.import_s", "s"},
    {"datagen.rows_skipped", "count"},
    {"persist.open_s", "s"},
    {"persist.recover_s", "s"},
    {"persist.replayed_ops", "count"},
    {"persist.wal_appends", "count"},
    {"persist.wal_bytes_per_op", "B"},
    {"persist.retries", "count"},
    {"persist.checkpoint_s", "s"},
    {"persist.checkpoint_bytes", "B"},
    {"core.ingest_s", "s"},
    {"core.identify_ms", "ms"},
    {"core.ingest_self_ms", "ms"},
    {"core.comparisons_per_snippet", "count"},
    {"core.align_s", "s"},
    {"core.align_pairs_scored", "count"},
    {"core.integrated_stories", "count"},
    {"core.refine_s", "s"},
    {"core.refine_pass_ms", "ms"},
    {"core.refine_realign_ms", "ms"},
    {"core.refine_moves", "count"},
    {"core.refine_conflicts", "count"},
    {"core.refine_move_ratio", "ratio"},
    {"core.write_self_ms", "ms"},
    {"search.index_build_s", "s"},
    {"search.parse_us_p50", "us"},
    {"search.rank_us_p50", "us"},
    {"search.rank_us_p90", "us"},
    {"serve.capture_s", "s"},
    {"serve.capture_ms_per_op", "ms"},
    {"serve.bytes_copied_per_epoch", "B"},
    {"serve.epochs_published", "count"},
    {"serve.epochs_retired_live", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.overhead_us_p50", "us"},
    {"serve.overhead_us_p90", "us"},
    {"serve.rejected", "count"},
    {"cow.bytes_copied", "B"},
    {"gen.writes", "count"},
    {"gen.queries", "count"},
    {"gen.writer_late_ms_max", "ms"},
    {"gen.write_p99_ms", "ms"},
    {"gen.query_p99_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

double SafeDiv(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Records one corpus's p50 and p90 of `kind` ("query" or "write")
/// latency; the run reports their median over corpora. A corpus must give
/// at least ten samples beyond its p90.
void AddLatencies(const std::string& kind, const std::vector<double>& ms,
                  Samples* e2e) {
  e2e->Add(kind + "_p50_ms", Percentile(ms, 50).value);
  e2e->Add(kind + "_p90_ms", Percentile(ms, 90).value);
}

/// Adds the medians over a corpus's passes to the run's per-corpus values.
void AddMedians(const Passes& passes, Samples* e2e) {
  for (const auto& [name, value] : passes.Medians()) e2e->Add(name, value);
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum;
}

double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void PrintQuantile(const char* name, const Quantile& q, const char* unit) {
  std::printf("diag %s = %.4f %s (n=%zu, %zu beyond)\n", name, q.value, unit,
              q.n, q.beyond);
}

/// Prints every metric of `defs` as one line each, scaled to the reference
/// host speed by `factor` (see AtReferenceSpeed) and followed by the value
/// as measured, then returns the scaled values as the JSON "metrics"
/// object.
template <size_t N>
std::string EmitMetrics(const char* kind, const MetricDef (&defs)[N],
                        const Samples& samples, double factor) {
  std::string json = "{";
  for (size_t i = 0; i < N; ++i) {
    const double measured = samples.MedianOf(defs[i].name);
    double value = AtReferenceSpeed(measured, defs[i].unit, factor);
    if (!std::isfinite(value)) value = 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    std::printf("%s %s = %s %s (measured %.6g)\n", kind, defs[i].name, number,
                defs[i].unit, measured);
    json.append(i > 0 ? ", \"" : "\"").append(defs[i].name);
    json.append("\": {\"value\": ").append(number);
    json.append(", \"unit\": \"").append(defs[i].unit).append("\"}");
  }
  return json + "}";
}

// --- Process and file-system helpers -------------------------------------

/// A memory field of /proc/self/status ("VmHWM" the RSS high-water mark,
/// "VmRSS" the RSS now) in MB; 0 if it cannot be read.
double StatusMb(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0.0;
  const size_t length = std::strlen(field);
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, length) == 0 && line[length] == ':') {
      kb = std::strtod(line + length + 1, nullptr);
    }
  }
  std::fclose(file);
  return kb / 1024.0;
}

/// Marks the start of a measured part: returns freed heap to the kernel,
/// resets the RSS high-water mark and returns the RSS left after that.
/// PeakRssMb() then gives the most the part added above it, which leaves
/// out the benchmark's own data and whatever earlier passes left behind.
/// Negative when the mark cannot be reset.
double ResetPeakRss() {
  malloc_trim(0);
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return -1.0;
  const bool wrote = std::fputs("5", file) >= 0;
  if (std::fclose(file) != 0 || !wrote) return -1.0;
  return StatusMb("VmRSS");
}

/// The RSS high-water mark since ResetPeakRss() returned `base_mb`, above
/// that base.
double PeakRssMb(double base_mb) { return StatusMb("VmHWM") - base_mb; }

const char* FileSystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: return "other";
  }
}

/// Bytes of the regular files under `dir` whose names start with `prefix`.
uint64_t DirBytes(const std::string& dir, const char* prefix = "") {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code entry_ec;
    if (!it->is_regular_file(entry_ec) ||
        it->path().filename().string().rfind(prefix, 0) != 0) {
      continue;
    }
    const uintmax_t size = it->file_size(entry_ec);
    if (!entry_ec) total += size;
  }
  return total;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Keeps every CPU out of idle while serve_live runs: one spinning thread
/// per hardware thread at SCHED_IDLE, which gets a CPU only when nothing
/// else wants it and gives it up to any thread that wakes there. This is
/// what booting with idle=poll does. On a VM a halted vCPU wakes through
/// the host's scheduler, and that took longer the busier the host was;
/// every handoff between the writer, the clients and the server threads
/// waits for one such wake-up (README.md, Noise).
class KeepAwake {
 public:
  explicit KeepAwake(unsigned threads) {
    for (unsigned i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { Spin(); });
    }
    while (ready_.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& thread : threads_) thread.join();
  }

  /// Spinners running; 0 where SCHED_IDLE is refused, so none spin.
  unsigned spinning() const { return spinning_.load(); }

 private:
  void Spin() {
    const sched_param param{};
    const bool idle =
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
    if (idle) spinning_.fetch_add(1);
    ready_.fetch_add(1, std::memory_order_release);
    while (idle && !stop_.load(std::memory_order_relaxed)) CpuRelax();
  }

  std::atomic<unsigned> ready_{0};
  std::atomic<unsigned> spinning_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The calling thread's timed sleeps end on time instead of up to the
/// default 50 us late, so serve_live's open-loop writer sends when due.
void TightTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

// --- Host speed -----------------------------------------------------------

/// The reference speed that timings are scaled to: about the host-speed
/// probe's median on the 4-vCPU VM (Intel Xeon, Firecracker guest) whose
/// runs set BENCHMARK.json's bounds.
constexpr double kReferenceProbeMs = 2.0;
/// Probe units each CPU runs per probe; the probe keeps their median.
constexpr int kProbeUnits = 5;

/// A fixed piece of work that belongs to the benchmark, not the library:
/// hash-map inserts and lookups, a sort and string building over 8,192
/// seeded keys, about a megabyte touched. It slows down with the rest of
/// the host the way the library's own hash-map, sort and string work does,
/// and no change to the library changes it.
uint64_t ProbeUnit() {
  sp::Pcg32 rng(12345, 3);
  std::vector<uint64_t> keys(8192);
  for (uint64_t& key : keys) key = (uint64_t{rng.Next()} << 32) | rng.Next();
  std::unordered_map<uint64_t, uint32_t> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map.emplace(keys[i], static_cast<uint32_t>(i));
  }
  uint64_t sum = 0;
  for (uint64_t key : keys) sum += map.find(key)->second;
  std::sort(keys.begin(), keys.end());
  std::string text;
  for (size_t i = 0; i < keys.size(); i += 4) {
    text += std::to_string(keys[i] % 100000);
  }
  return sum + std::hash<std::string>()(text);
}

/// Times the probe on every CPU the process may use, all at once, each
/// thread pinned to its CPU, and returns the mean over CPUs of each CPU's
/// median unit time in ms. The host slows vCPUs down one by one, so one
/// CPU's time says little about the others'.
double ProbeHostMs() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0.0;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::vector<double> ms(cpus.size());
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      std::vector<double> units;
      for (int u = 0; u < kProbeUnits; ++u) {
        const int64_t start = NowNs();
        sink.fetch_add(ProbeUnit(), std::memory_order_relaxed);
        units.push_back(NsToMs(NowNs() - start));
      }
      ms[i] = Median(units);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Mean(ms);
}

/// The run's host-speed probes. They run between the timed phases of the
/// measured passes, never during one, and never between an RSS reset and
/// the peak read after it.
class HostSpeed {
 public:
  void Probe() { probes_ms_.push_back(ProbeHostMs()); }

  /// How much slower than the reference the host ran over the run: the
  /// median probe time over kReferenceProbeMs; 0 before any probe, which
  /// leaves values as measured.
  double Factor() const {
    return probes_ms_.empty() ? 0.0 : Median(probes_ms_) / kReferenceProbeMs;
  }
  size_t probes() const { return probes_ms_.size(); }
  double median_ms() const { return Median(probes_ms_); }

 private:
  std::vector<double> probes_ms_;
};

/// Probes when given a HostSpeed; the untimed warm-up passes none.
void ProbeHost(HostSpeed* host) {
  if (host != nullptr) host->Probe();
}

// --- Inputs ---------------------------------------------------------------

/// Generates the seeded corpus and writes it as TSV. The corpus is freed
/// before returning; only the file reaches the program's part.
size_t WriteCorpus(uint64_t seed, int snippets, const std::string& path,
                   Outcome* outcome) {
  sp::datagen::CorpusConfig config = sp::datagen::GdeltScalePreset();
  config.seed = seed;
  config.target_num_snippets = snippets;
  sp::datagen::Corpus corpus =
      sp::datagen::CorpusGenerator(std::move(config)).Generate();
  outcome->Gate(sp::datagen::ExportTsvToFile(corpus, path).ok(),
                "corpus TSV written");
  return corpus.snippets.size();
}

/// Reads and parses the TSV as `storypivot_cli detect` does.
bool LoadCorpus(const std::string& path, sp::datagen::ImportedCorpus* out,
                sp::datagen::ImportReport* report, Outcome* outcome) {
  sp::Result<std::string> contents = sp::ReadFileToString(path);
  if (!outcome->Gate(contents.ok(), "TSV read")) return false;
  sp::Result<sp::datagen::ImportedCorpus> imported =
      sp::datagen::ImportTsvPermissive(contents.value(), report);
  if (!outcome->Gate(imported.ok(), "TSV parsed")) return false;
  outcome->Gate(report->skipped.empty(), "TSV import skipped 0 rows");
  *out = std::move(imported.value());
  return true;
}

/// Registers the corpus vocabularies and sources on a fresh engine.
bool Register(const sp::datagen::ImportedCorpus& corpus,
              sp::persist::DurableEngine* durable, Outcome* outcome) {
  bool ok = durable
                ->ImportVocabularies(*corpus.entity_vocabulary,
                                     *corpus.keyword_vocabulary)
                .ok();
  for (const sp::SourceInfo& source : corpus.sources) {
    ok = durable->RegisterSource(source.name).ok() && ok;
  }
  return outcome->Gate(ok, "vocabularies and sources registered");
}

/// Consecutive batches of `size` snippets from [begin, end), with ids
/// cleared for ingest.
std::vector<std::vector<sp::Snippet>> Batches(
    const std::vector<sp::Snippet>& snippets, size_t begin, size_t end,
    size_t size) {
  std::vector<std::vector<sp::Snippet>> batches;
  for (size_t i = begin; i < end; i += size) {
    const size_t stop = std::min(end, i + size);
    std::vector<sp::Snippet> batch(snippets.begin() + static_cast<long>(i),
                                   snippets.begin() + static_cast<long>(stop));
    for (sp::Snippet& snippet : batch) snippet.id = sp::kInvalidSnippetId;
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct QuerySpec {
  std::string text;
  sp::search::SearchOptions options;
};

/// kDistinctQueries queries of one entity plus two keywords, spread over
/// the document-frequency ranks as bench/bench_serve.cc does. A quarter
/// carry a 14-day window around a seeded snippet's time, a quarter match
/// all terms, and every query asks for the top 10. `anchors` are the
/// event times of the snippets the queries are built over.
std::vector<QuerySpec> MakeQueries(const sp::StoryPivotEngine& engine,
                                   const sp::search::PostingsIndex& index,
                                   const std::vector<sp::Timestamp>& anchors,
                                   uint64_t seed) {
  auto by_df = [&](sp::search::Field field,
                   const sp::text::Vocabulary& vocab) {
    std::vector<std::pair<size_t, sp::text::TermId>> terms;
    for (sp::text::TermId id = 0; id < vocab.size(); ++id) {
      const size_t df = index.DocumentFrequency(field, id);
      if (df > 0) terms.emplace_back(df, id);
    }
    std::sort(terms.begin(), terms.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    return terms;
  };
  const auto entities =
      by_df(sp::search::Field::kEntity, engine.entity_vocabulary());
  const auto keywords =
      by_df(sp::search::Field::kKeyword, engine.keyword_vocabulary());
  std::vector<QuerySpec> queries;
  if (entities.empty() || keywords.size() < 2 || anchors.empty()) {
    return queries;
  }
  sp::Pcg32 rng(seed, /*stream=*/11);
  for (size_t q = 0; q < kDistinctQueries; ++q) {
    QuerySpec spec;
    spec.text = engine.entity_vocabulary().TermOf(
        entities[(q * 7) % entities.size()].second);
    for (size_t j = 0; j < 2; ++j) {
      spec.text += ' ';
      spec.text += engine.keyword_vocabulary().TermOf(
          keywords[(q * 5 + j * 3) % keywords.size()].second);
    }
    spec.options.k = 10;
    if (q % 4 == 0) {
      const sp::Timestamp at =
          anchors[rng.NextBounded(static_cast<uint32_t>(anchors.size()))];
      spec.options.filter_time = true;
      spec.options.from = at - kWindowHalf;
      spec.options.to = at + kWindowHalf;
    } else if (q % 4 == 1) {
      spec.options.mode = sp::search::MatchMode::kAll;
    }
    queries.push_back(std::move(spec));
  }
  return queries;
}

/// Estimated cost of recording one span, from a calibration loop.
double SpanCostNs() {
  constexpr int kSpans = 20000;
  Tracer scratch;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    Timed span(&scratch, "calibration", -1, static_cast<uint64_t>(i));
    span.End();
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

std::vector<sp::Timestamp> Anchors(const std::vector<sp::Snippet>& snippets,
                                   size_t end) {
  std::vector<sp::Timestamp> anchors;
  for (size_t i = 0; i < end; ++i) anchors.push_back(snippets[i].timestamp);
  return anchors;
}

sp::serve::QueryRequest RequestOf(const QuerySpec& spec) {
  sp::serve::QueryRequest request;
  request.query = spec.text;
  request.options = spec.options;
  return request;
}

// --- detect_batch ---------------------------------------------------------

/// A corpus's TSV, its seed and what its first pass established.
struct DetectCorpus {
  int index = 0;
  uint64_t seed = 0;
  std::string tsv;
  Passes e2e;
  bool have_fingerprint = false;
  uint64_t fingerprint = 0;
};

/// One pass of the Fig. 7 pipeline on a fresh directory: read and parse
/// the TSV, open, register, ingest in 512-snippet batches, Align, Refine,
/// Checkpoint. Untimed afterwards: the analyst's query pass (its latencies
/// are measured, but outside detect_s), and the reopen-fingerprint gate
/// and quality scores on the corpus's first pass. Later passes must
/// reproduce the first pass's fingerprint.
void DetectPass(const Args& args, DetectCorpus* corpus_state, int pass,
                HostSpeed* host, Tracer* tracer, Outcome* outcome,
                Samples* pooled, Samples* layer) {
  const std::string dir = args.data_dir + "/detect-" +
                          std::to_string(corpus_state->index) + "-" +
                          std::to_string(pass);
  const uint64_t request =
      (static_cast<uint64_t>(corpus_state->index + 1) << 16) |
      static_cast<uint64_t>(pass);
  Passes& e2e = corpus_state->e2e;
  ProbeHost(host);
  const double rss_base_mb = ResetPeakRss();
  outcome->Gate(rss_base_mb >= 0.0, "RSS high-water mark reset");

  // Set-up: TSV read and parse, Open on an empty dir, registration.
  Timed setup(tracer, "detect_batch.setup", -1, request);
  Timed import(tracer, "datagen.import", setup.id(), request);
  sp::datagen::ImportedCorpus corpus;
  sp::datagen::ImportReport report;
  const bool loaded = LoadCorpus(corpus_state->tsv, &corpus, &report, outcome);
  const int64_t import_ns = import.End();
  if (!loaded) return;
  Timed open(tracer, "persist.open", setup.id(), request);
  sp::EngineConfig config;
  config.num_threads = DetectThreads();
  sp::Result<std::unique_ptr<sp::persist::DurableEngine>> opened =
      sp::persist::DurableEngine::Open(dir, Durability(), config);
  if (!outcome->Gate(opened.ok() && opened.value()->next_lsn() == 0,
                     "DurableEngine::Open on an empty directory")) {
    return;
  }
  sp::persist::DurableEngine& durable = *opened.value();
  if (!Register(corpus, &durable, outcome)) return;
  const int64_t open_ns = open.End();
  const int64_t setup_ns = setup.End();

  // Untimed: split the input into the ops the pipeline sends, and read
  // the counters the layers are attributed from.
  std::vector<std::vector<sp::Snippet>> batches =
      Batches(corpus.snippets, 0, corpus.snippets.size(), kIngestBatch);
  const sp::EngineStats stats0 = durable.engine().stats();
  const uint64_t comparisons0 =
      durable.engine().similarity().num_comparisons();
  const uint64_t lsn0 = durable.next_lsn();
  const uint64_t retries0 = durable.wal_retry_stats().retries;
  const uint64_t bytes0 = DirBytes(dir);

  // Detection: the AddSnippets batches, Align, Refine and Checkpoint, each
  // call timed on its own.
  Timed detect(tracer, "detect_batch.detect", -1, request);
  std::vector<double> write_ms;
  int64_t ingest_ns = 0;
  bool ingested = true;
  for (std::vector<sp::Snippet>& batch : batches) {
    Timed op(tracer, "core.ingest", detect.id(), request);
    const bool ok = durable.AddSnippets(std::move(batch)).ok();
    const int64_t ns = op.End();
    outcome->Op(ok);
    ingested = ingested && ok;
    write_ms.push_back(NsToMs(ns));
    ingest_ns += ns;
  }
  const sp::EngineStats stats1 = durable.engine().stats();
  const uint64_t comparisons1 =
      durable.engine().similarity().num_comparisons();
  Timed align(tracer, "core.align", detect.id(), request);
  const bool aligned = durable.Align().ok();
  const int64_t align_ns = align.End();
  const uint64_t pairs_scored =
      aligned ? durable.engine().alignment().num_pairs_scored : 0;
  const sp::EngineStats stats2 = durable.engine().stats();
  Timed refine(tracer, "core.refine", detect.id(), request);
  sp::Result<sp::RefinementStats> refined = durable.Refine();
  const int64_t refine_ns = refine.End();
  const sp::EngineStats stats3 = durable.engine().stats();
  const uint64_t lsn1 = durable.next_lsn();
  const uint64_t wal_bytes = DirBytes(dir) - bytes0;
  Timed checkpoint(tracer, "persist.checkpoint", detect.id(), request);
  const bool checkpointed = durable.Checkpoint().ok();
  const int64_t checkpoint_ns = checkpoint.End();
  const int64_t detect_ns = detect.End();
  const double peak_rss_mb = PeakRssMb(rss_base_mb);
  ProbeHost(host);
  const uint64_t disk_bytes = DirBytes(dir);
  const uint64_t checkpoint_bytes = DirBytes(dir, "checkpoint-");
  const uint64_t retries1 = durable.wal_retry_stats().retries;
  outcome->Gate(ingested, "every AddSnippets batch acked");
  outcome->Gate(aligned, "Align() OK");
  outcome->Gate(refined.ok(), "Refine() OK");
  outcome->Gate(checkpointed, "Checkpoint() OK");
  if (!ingested || !aligned || !refined.ok() || !checkpointed) return;

  const double snippets =
      static_cast<double>(durable.engine().store().size());
  const size_t integrated = durable.engine().alignment().stories.size();
  const uint64_t fingerprint = sp::EngineStateFingerprint(durable.engine());
  const bool first = !corpus_state->have_fingerprint;
  const std::string label =
      corpus_state->index < 0
          ? "warm-up"
          : "corpus " + std::to_string(corpus_state->index) + " pass " +
                std::to_string(pass);
  std::printf("%s: fingerprint %016" PRIx64 "\n", label.c_str(), fingerprint);
  if (first) {
    corpus_state->have_fingerprint = true;
    corpus_state->fingerprint = fingerprint;
    const sp::eval::QualityScores scores =
        sp::eval::ScoreEngine(durable.engine());
    std::printf("%s: SI-F1 %.4f, SA-F1 %.4f\n", label.c_str(),
                scores.si_pairwise.f1, scores.sa_pairwise.f1);
    e2e.Value("si_f1", scores.si_pairwise.f1);
    e2e.Value("sa_f1", scores.sa_pairwise.f1);
  } else {
    outcome->Gate(fingerprint == corpus_state->fingerprint,
                  "every pass reproduces the corpus's fingerprint");
  }

  // The analyst reads the refined stories: every distinct query once, in
  // a seeded order, through the search path `storypivot_cli search` uses.
  std::vector<double> query_ms;
  {
    sp::search::SearchEngine search(&durable.engine());
    const std::vector<QuerySpec> queries =
        MakeQueries(durable.engine(), search.index(),
                    Anchors(corpus.snippets, corpus.snippets.size()),
                    corpus_state->seed);
    outcome->Gate(queries.size() == kDistinctQueries, "query list built");
    const std::vector<uint32_t> order =
        PopularityOrder(queries.size(), corpus_state->seed);
    size_t nonempty = 0;
    for (uint32_t index : order) {
      const int64_t t0 = NowNs();
      const std::vector<sp::search::StoryHit> hits =
          search.Search(queries[index].text, queries[index].options);
      query_ms.push_back(NsToMs(NowNs() - t0));
      nonempty += hits.empty() ? 0 : 1;
      outcome->Op(true);
    }
    outcome->Gate(nonempty > 0, "analyst queries find stories");
  }

  // Recovery must reproduce the checkpointed state exactly.
  outcome->Gate(durable.Close().ok(), "Close() OK");
  if (first) {
    sp::Result<std::unique_ptr<sp::persist::DurableEngine>> reopened =
        sp::persist::DurableEngine::Open(dir, Durability(), config);
    outcome->Gate(reopened.ok() &&
                      sp::EngineStateFingerprint(reopened.value()->engine()) ==
                          fingerprint,
                  "reopened fingerprint equals the checkpointed one");
    if (reopened.ok()) {
      outcome->Gate(reopened.value()->Close().ok(), "reopened Close() OK");
    }
  }
  opened.value().reset();
  RemoveTree(dir);
  ProbeHost(host);

  std::printf("%s: setup %.3f s, detect %.3f s (ingest %.3f, align %.3f, "
              "refine %.3f, checkpoint %.3f), write p50 %.2f ms, query p50 "
              "%.3f ms, peak RSS %.1f MB\n",
              label.c_str(), NsToS(setup_ns), NsToS(detect_ns),
              NsToS(ingest_ns), NsToS(align_ns), NsToS(refine_ns),
              NsToS(checkpoint_ns), Percentile(write_ms, 50).value,
              Percentile(query_ms, 50).value, peak_rss_mb);
  e2e.Value("setup_s", NsToS(setup_ns));
  outcome->Gate(e2e.Ops("write_ms", write_ms) &&
                    e2e.Ops("step_ms", {NsToMs(align_ns), NsToMs(refine_ns),
                                        NsToMs(checkpoint_ns)}) &&
                    e2e.Ops("query_ms", query_ms),
                "every pass times the same operations");
  e2e.Value("disk_bytes_per_snippet",
            SafeDiv(static_cast<double>(disk_bytes), snippets));
  e2e.Value("peak_rss_mb", peak_rss_mb);
  pooled->Pool("query", query_ms);
  pooled->Pool("write", write_ms);

  const double identify_ms = stats1.identify_time_ms - stats0.identify_time_ms;
  const double appends = static_cast<double>(lsn1 - lsn0);
  const sp::RefinementStats& moves = refined.value();
  layer->Add("datagen.import_s", NsToS(import_ns));
  layer->Add("datagen.rows_skipped",
             static_cast<double>(report.skipped.size()));
  layer->Add("persist.open_s", NsToS(open_ns));
  layer->Add("persist.wal_appends", appends);
  layer->Add("persist.wal_bytes_per_op",
             SafeDiv(static_cast<double>(wal_bytes), appends));
  layer->Add("persist.retries", static_cast<double>(retries1 - retries0));
  layer->Add("persist.checkpoint_s", NsToS(checkpoint_ns));
  layer->Add("persist.checkpoint_bytes",
             static_cast<double>(checkpoint_bytes));
  layer->Add("core.ingest_s", NsToS(ingest_ns));
  layer->Add("core.identify_ms", identify_ms);
  layer->Add("core.ingest_self_ms", NsToMs(ingest_ns) - identify_ms);
  layer->Add("core.comparisons_per_snippet",
             SafeDiv(static_cast<double>(comparisons1 - comparisons0),
                     snippets));
  layer->Add("core.align_s", NsToS(align_ns));
  layer->Add("core.align_pairs_scored", static_cast<double>(pairs_scored));
  layer->Add("core.integrated_stories", static_cast<double>(integrated));
  layer->Add("core.refine_s", NsToS(refine_ns));
  layer->Add("core.refine_pass_ms",
             stats3.refine_time_ms - stats2.refine_time_ms);
  layer->Add("core.refine_realign_ms",
             stats3.align_time_ms - stats2.align_time_ms);
  layer->Add("core.refine_moves", moves.snippets_moved);
  layer->Add("core.refine_conflicts",
             static_cast<double>(moves.conflicts_examined));
  layer->Add("core.refine_move_ratio",
             SafeDiv(moves.snippets_moved,
                     static_cast<double>(moves.conflicts_examined)));
  if (tracer != nullptr) {
    // Share of setup_s + detect_s that the layer spans account for: the
    // phases' self time is the unattributed rest.
    const std::vector<Span> spans = tracer->spans();
    const int64_t unattributed =
        SelfTimeNs(spans, static_cast<size_t>(setup.id())) +
        SelfTimeNs(spans, static_cast<size_t>(detect.id()));
    layer->Add("trace.coverage",
               1.0 - SafeDiv(static_cast<double>(unattributed),
                             static_cast<double>(setup_ns + detect_ns)));
  }
}

/// A corpus's end-to-end values from its passes. detect_s is the sum over
/// the detection calls (every AddSnippets batch, Align, Refine,
/// Checkpoint) of each call's median over the passes, and the analyst's
/// query latencies are each query's median. The batch acks are pooled
/// over the run's corpora for the write percentiles: 24 per corpus are too
/// few beyond a p90.
void AddDetectCorpus(const DetectCorpus& corpus, Samples* e2e) {
  AddMedians(corpus.e2e, e2e);
  const std::vector<double> writes = corpus.e2e.OpMedians("write_ms");
  const std::vector<double> queries = corpus.e2e.OpMedians("query_ms");
  e2e->Add("detect_s",
           (Sum(writes) + Sum(corpus.e2e.OpMedians("step_ms"))) / 1e3);
  AddLatencies("query", queries, e2e);
  e2e->Add("query_qps", SafeDiv(static_cast<double>(queries.size()),
                                Sum(queries) / 1e3));
  e2e->Pool("write", writes);
}

// --- serve_live -----------------------------------------------------------

/// A corpus of serve_live: its TSV, what the untimed preparation leaves
/// for the passes (a data directory holding the first half of the corpus,
/// and the query list built from that restart state), and what its first
/// pass established.
struct ServeCorpus {
  int index = 0;
  uint64_t seed = 0;
  std::string tsv;
  std::string dir;
  std::vector<QuerySpec> queries;
  std::vector<uint32_t> order;
  size_t restored = 0;
  size_t streamed = 0;
  uint64_t replayed_ops = 0;
  Passes e2e;
  bool have_fingerprint = false;
  uint64_t fingerprint = 0;
};

/// Writes the first half of the corpus to `prep->dir`: a checkpoint after
/// the first quarter, the second quarter left as WAL tail, then a logged
/// Align().
bool PrepareServe(ServeCorpus* prep, Outcome* outcome) {
  sp::datagen::ImportedCorpus corpus;
  sp::datagen::ImportReport report;
  if (!LoadCorpus(prep->tsv, &corpus, &report, outcome)) return false;
  const size_t total = corpus.snippets.size();
  const size_t half = total / 2;
  const size_t quarter = total / 4;
  sp::EngineConfig config;
  config.num_threads = DetectThreads();
  sp::Result<std::unique_ptr<sp::persist::DurableEngine>> opened =
      sp::persist::DurableEngine::Open(prep->dir, Durability(), config);
  if (!outcome->Gate(opened.ok(), "prep Open")) return false;
  sp::persist::DurableEngine& durable = *opened.value();
  if (!Register(corpus, &durable, outcome)) return false;
  bool ok = true;
  for (auto& batch : Batches(corpus.snippets, 0, quarter, kIngestBatch)) {
    ok = durable.AddSnippets(std::move(batch)).ok() && ok;
  }
  ok = durable.Checkpoint().ok() && ok;
  const uint64_t checkpoint_lsn = durable.next_lsn();
  for (auto& batch : Batches(corpus.snippets, quarter, half, kIngestBatch)) {
    ok = durable.AddSnippets(std::move(batch)).ok() && ok;
  }
  ok = durable.Align().ok() && ok;
  prep->replayed_ops = durable.next_lsn() - checkpoint_lsn;
  {
    sp::search::SearchEngine search(&durable.engine());
    prep->queries = MakeQueries(durable.engine(), search.index(),
                                Anchors(corpus.snippets, half), prep->seed);
  }
  ok = durable.Close().ok() && ok;
  if (!outcome->Gate(ok, "prep writes, checkpoint, Align and Close OK") ||
      !outcome->Gate(prep->queries.size() == kDistinctQueries,
                     "query list built")) {
    return false;
  }
  prep->order = PopularityOrder(prep->queries.size(), prep->seed);
  prep->restored = half;
  prep->streamed = total - half;
  return true;
}

/// Standalone versions of the calls ServingEngine::Open makes, on a copy
/// of the prepared directory, so the traced run can attribute setup_s to
/// persist (recovery), search (index build) and serve (first capture).
void AttributeSetup(const Args& args, const ServeCorpus& prep,
                    const std::string& name, uint64_t request, Tracer* tracer,
                    Outcome* outcome, Samples* layer, int64_t* attributed_ns) {
  const std::string probe = args.data_dir + "/probe-" + name;
  if (!outcome->Gate(CopyDir(prep.dir, probe), "probe directory copied")) {
    return;
  }
  sp::EngineConfig config;  // One engine thread, as serve_live runs.
  // Start from the same trimmed heap as the timed Open does.
  outcome->Gate(ResetPeakRss() >= 0.0, "RSS high-water mark reset");
  Timed root(tracer, "serve_live.setup_attribution", -1, request);
  Timed recover(tracer, "persist.recover", root.id(), request);
  sp::Result<std::unique_ptr<sp::persist::DurableEngine>> opened =
      sp::persist::DurableEngine::Open(probe, Durability(), config);
  const int64_t recover_ns = recover.End();
  if (outcome->Gate(opened.ok(), "probe recovery")) {
    sp::persist::DurableEngine& durable = *opened.value();
    Timed build(tracer, "search.index_build", root.id(), request);
    auto search = std::make_unique<sp::search::SearchEngine>(&durable.engine());
    const int64_t build_ns = build.End();
    Timed capture(tracer, "serve.capture", root.id(), request);
    std::unique_ptr<sp::serve::ReadSnapshot> snapshot =
        sp::serve::ReadSnapshot::Capture(durable.engine(), search->index());
    const int64_t capture_ns = capture.End();
    snapshot.reset();
    search.reset();
    outcome->Gate(durable.Close().ok(), "probe Close");
    layer->Add("persist.recover_s", NsToS(recover_ns));
    layer->Add("search.index_build_s", NsToS(build_ns));
    layer->Add("serve.capture_s", NsToS(capture_ns));
    *attributed_ns = recover_ns + build_ns + capture_ns;
  }
  root.End();
  if (opened.ok()) opened.value().reset();
  RemoveTree(probe);
}

/// One pass of a corpus: ServingEngine::Open on a copy of the prepared
/// directory, then the open-loop writer and the closed-loop clients until
/// the feed ends, then the gates. Every pass sends the same feed and the
/// same request sequences and must leave the same engine state.
void ServePass(const Args& args, ServeCorpus* prep, int pass,
               HostSpeed* host, Tracer* tracer, Outcome* outcome,
               Samples* pooled, Samples* layer) {
  const sp::ZipfDistribution zipf(static_cast<uint32_t>(prep->queries.size()),
                                  kZipfExponent);
  const std::string name =
      std::to_string(prep->index) + "-" + std::to_string(pass);
  const std::string dir = args.data_dir + "/round-" + name;
  const uint64_t request = (static_cast<uint64_t>(prep->index + 1) << 16) |
                           static_cast<uint64_t>(pass);
  Passes& e2e = prep->e2e;
  ProbeHost(host);
  int64_t attributed_ns = 0;
  if (tracer != nullptr) {
    AttributeSetup(args, *prep, name, request, tracer, outcome, layer,
                   &attributed_ns);
  }
  if (!outcome->Gate(CopyDir(prep->dir, dir), "prepared directory copied")) {
    return;
  }
  // The feed, the second half of the corpus, is read from the TSV again
  // for every pass. It is held once, by the writer, and freed op by op as
  // it is sent.
  std::vector<std::vector<sp::Snippet>> ops;
  {
    sp::datagen::ImportedCorpus corpus;
    sp::datagen::ImportReport report;
    if (!LoadCorpus(prep->tsv, &corpus, &report, outcome)) return;
    ops = Batches(corpus.snippets, prep->restored, corpus.snippets.size(),
                  kLiveBatch);
  }
  std::vector<size_t> op_snippets;
  for (const std::vector<sp::Snippet>& op : ops) {
    op_snippets.push_back(op.size());
  }
  sp::serve::ServerOptions server_options;
  server_options.num_threads = kServerThreads;
  server_options.max_queued = kServerQueue;
  server_options.cache_capacity = kServerCache;
  sp::EngineConfig config;  // num_threads = 1.
  const double rss_base_mb = ResetPeakRss();
  outcome->Gate(rss_base_mb >= 0.0, "RSS high-water mark reset");

  // Set-up: Open (recover, rebuild the index, publish epoch 1) until the
  // first query is answered.
  Timed open(tracer, "serve.open", -1, request);
  sp::Result<std::unique_ptr<sp::serve::ServingEngine>> opened =
      sp::serve::ServingEngine::Open(dir, server_options, Durability(), config);
  if (!outcome->Gate(opened.ok(), "ServingEngine::Open")) return;
  sp::serve::ServingEngine& serving = *opened.value();
  const bool answered =
      serving.Query(RequestOf(prep->queries[prep->order[0]])).ok();
  const int64_t setup_ns = open.End();
  if (!outcome->Gate(answered, "first query answered")) return;

  sp::persist::DurableEngine& durable = serving.durable();
  const sp::EngineStats stats0 = durable.engine().stats();
  const uint64_t comparisons0 =
      durable.engine().similarity().num_comparisons();
  const uint64_t lsn0 = durable.next_lsn();
  const uint64_t retries0 = durable.wal_retry_stats().retries;
  const uint64_t bytes0 = DirBytes(dir);
  const sp::serve::EpochManager::Stats epochs0 = serving.epochs().GetStats();
  const sp::serve::Server::Stats server0 = serving.server().GetStats();
  const sp::cow::CopyCounters cow0 = sp::cow::ReadCopyCounters();

  // Live phase: one open-loop writer, timed from each op's due time so a
  // stall delays the ops queued behind it, and kClients closed-loop
  // readers.
  std::vector<OpenLoopOp> times(ops.size());
  std::vector<uint8_t> acked(ops.size(), 0);
  std::vector<double> write_self_ms, retired_live;
  std::atomic<bool> done{false};
  const int64_t start_ns = NowNs() + 2'000'000;
  Timed live(tracer, "serve_live.live", -1, request);
  std::thread writer([&] {
    TightTimers();
    for (size_t i = 0; i < ops.size(); ++i) {
      const int64_t due = DueNs(start_ns, kLiveIntervalNs, i);
      std::this_thread::sleep_until(SteadyAt(due));
      double identify0 = 0.0, capture0 = 0.0;
      if (tracer != nullptr) {
        identify0 = durable.engine().stats().identify_time_ms;
        capture0 = serving.epochs().GetStats().total_capture_ms;
      }
      Timed op(tracer, "serve.write", live.id(), (request << 24) | i);
      acked[i] = durable.AddSnippets(std::move(ops[i])).ok() ? 1 : 0;
      const int64_t ns = op.End();
      times[i] = OpenLoopOp{due, op.start_ns(), op.start_ns() + ns};
      if (tracer != nullptr) {
        const sp::serve::EpochManager::Stats epochs =
            serving.epochs().GetStats();
        const double identify =
            durable.engine().stats().identify_time_ms - identify0;
        const double capture = epochs.total_capture_ms - capture0;
        write_self_ms.push_back(NsToMs(ns) - identify - capture);
        retired_live.push_back(static_cast<double>(epochs.retired_live));
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::vector<double>> client_ms(kClients);
  std::vector<uint64_t> client_failed(kClients, 0);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const uint64_t stream = 100 + c;
      RequestSequence sequence(&zipf, &prep->order, prep->seed, stream);
      std::this_thread::sleep_until(SteadyAt(start_ns));
      for (uint64_t n = 0; !done.load(std::memory_order_acquire); ++n) {
        const sp::serve::QueryRequest query =
            RequestOf(prep->queries[sequence.Next()]);
        Timed span(tracer, "serve.query", live.id(),
                   (request << 24) | ((c + 1) << 20) | (n & 0xfffff));
        const bool ok = serving.Query(query).ok();
        // Every request keeps its place in the client's sequence, so that
        // request n is the same query in every pass.
        client_ms[c].push_back(NsToMs(span.End()));
        if (!ok) ++client_failed[c];
      }
    });
  }
  writer.join();
  for (std::thread& client : clients) client.join();
  live.End();
  const double peak_rss_mb = PeakRssMb(rss_base_mb);
  ProbeHost(host);
  const int64_t live_ns = times.back().acked_ns - start_ns;

  const sp::EngineStats stats1 = durable.engine().stats();
  const uint64_t comparisons1 =
      durable.engine().similarity().num_comparisons();
  const uint64_t lsn1 = durable.next_lsn();
  const uint64_t retries1 = durable.wal_retry_stats().retries;
  const uint64_t bytes1 = DirBytes(dir);
  const sp::serve::EpochManager::Stats epochs1 = serving.epochs().GetStats();
  const sp::serve::Server::Stats server1 = serving.server().GetStats();
  const sp::cow::CopyCounters cow1 = sp::cow::ReadCopyCounters();

  size_t acked_ops = 0, acked_snippets = 0;
  for (size_t i = 0; i < acked.size(); ++i) {
    outcome->Op(acked[i] != 0);
    if (acked[i] != 0) {
      ++acked_ops;
      acked_snippets += op_snippets[i];
    }
  }
  std::vector<double> query_ms;
  for (size_t c = 0; c < kClients; ++c) {
    query_ms.insert(query_ms.end(), client_ms[c].begin(), client_ms[c].end());
    e2e.OpsPrefix("client_ms." + std::to_string(c), client_ms[c]);
    for (size_t q = client_failed[c]; q < client_ms[c].size(); ++q) {
      outcome->Op(true);
    }
    for (uint64_t q = 0; q < client_failed[c]; ++q) outcome->Op(false);
  }
  outcome->Gate(acked_ops == ops.size(), "every live write acked");

  // The final epoch must hold exactly the acked snippets and answer
  // every distinct query as the writer's own engine does.
  serving.Flush();
  std::shared_ptr<const sp::serve::ReadSnapshot> pinned =
      serving.epochs().Pin();
  outcome->Gate(pinned != nullptr &&
                    pinned->index().num_documents() ==
                        prep->restored + acked_snippets,
                "final epoch holds every acked snippet");
  size_t mismatched = 0;
  for (const QuerySpec& query : prep->queries) {
    if (pinned == nullptr ||
        pinned->Search(query.text, query.options) !=
            serving.search().Search(query.text, query.options)) {
      ++mismatched;
    }
  }
  outcome->Gate(mismatched == 0,
                "pinned snapshot hits equal SearchEngine::Search for every "
                "distinct query");
  pinned.reset();
  const uint64_t fingerprint = sp::EngineStateFingerprint(durable.engine());
  const bool first = !prep->have_fingerprint;
  if (first) {
    prep->have_fingerprint = true;
    prep->fingerprint = fingerprint;
  } else {
    outcome->Gate(fingerprint == prep->fingerprint,
                  "every pass reproduces the corpus's fingerprint");
  }

  if (tracer != nullptr) {
    // Each distinct query once on a fresh epoch (so the cache misses):
    // Server::Query, then the snapshot's Parse and Search alone. The
    // server's overhead is the difference.
    serving.PublishSnapshot();
    std::shared_ptr<const sp::serve::ReadSnapshot> snapshot =
        serving.epochs().Pin();
    std::vector<double> parse_us, rank_us, overhead_us;
    for (size_t q = 0; q < prep->queries.size(); ++q) {
      const QuerySpec& query = prep->queries[q];
      const uint64_t id = (request << 24) | ((kClients + 1) << 20) | q;
      Timed served(tracer, "serve.query_probe", -1, id);
      outcome->Op(serving.Query(RequestOf(query)).ok());
      const int64_t served_ns = served.End();
      Timed parse(tracer, "search.parse", -1, id);
      const sp::search::ParsedQuery parsed = snapshot->Parse(query.text);
      const int64_t parse_ns = parse.End();
      Timed rank(tracer, "search.rank", -1, id);
      const std::vector<sp::search::StoryHit> hits =
          snapshot->Search(parsed, query.options);
      const int64_t rank_ns = rank.End();
      parse_us.push_back(static_cast<double>(parse_ns) / 1e3);
      rank_us.push_back(static_cast<double>(rank_ns) / 1e3);
      overhead_us.push_back(
          static_cast<double>(served_ns - parse_ns - rank_ns) / 1e3);
    }
    layer->Add("search.parse_us_p50", Percentile(parse_us, 50).value);
    layer->Add("search.rank_us_p50", Percentile(rank_us, 50).value);
    layer->Add("search.rank_us_p90", Percentile(rank_us, 90).value);
    layer->Add("serve.overhead_us_p50", Percentile(overhead_us, 50).value);
    layer->Add("serve.overhead_us_p90", Percentile(overhead_us, 90).value);
    layer->Add("serve.epochs_retired_live", Mean(retired_live));
    layer->Add("core.write_self_ms", Median(write_self_ms));
    layer->Add("trace.coverage", SafeDiv(static_cast<double>(attributed_ns),
                                         static_cast<double>(setup_ns)));
  }

  opened.value().reset();
  RemoveTree(dir);
  ProbeHost(host);

  const OpenLoopSummary writes = SummarizeOpenLoop(times, kLateThresholdMs);
  const double qps =
      SafeDiv(static_cast<double>(query_ms.size()), NsToS(live_ns));
  const double service_ms = Sum(writes.service_ms);
  const double total_snippets =
      static_cast<double>(prep->restored + prep->streamed);
  std::printf("diag generator: %zu writes, %zu late by > %.1f ms, max %.3f "
              "ms late\n",
              writes.latency_ms.size(), writes.late_ops, kLateThresholdMs,
              writes.late_max_ms);
  std::printf("corpus %d pass %d: fingerprint %016" PRIx64 ", setup %.3f s, "
              "%zu writes p50 %.3f p90 %.3f ms, %zu queries p50 %.3f p90 "
              "%.3f ms, %.0f queries/s, peak RSS %.1f MB\n",
              prep->index, pass, fingerprint, NsToS(setup_ns),
              writes.latency_ms.size(),
              Percentile(writes.latency_ms, 50).value,
              Percentile(writes.latency_ms, 90).value, query_ms.size(),
              Percentile(query_ms, 50).value, Percentile(query_ms, 90).value,
              qps, peak_rss_mb);
  e2e.Value("setup_s", NsToS(setup_ns));
  e2e.Value("disk_bytes_per_snippet",
            SafeDiv(static_cast<double>(bytes1), total_snippets));
  e2e.Value("peak_rss_mb", peak_rss_mb);
  outcome->Gate(e2e.Ops("write_ms", writes.latency_ms) &&
                    e2e.Ops("service_ms", writes.service_ms),
                "every pass times the same operations");
  pooled->Pool("query", query_ms);
  pooled->Pool("write", writes.latency_ms);

  const double identify_ms = stats1.identify_time_ms - stats0.identify_time_ms;
  const double appends = static_cast<double>(lsn1 - lsn0);
  const double published =
      static_cast<double>(epochs1.published - epochs0.published);
  const double hits =
      static_cast<double>(server1.cache.hits - server0.cache.hits);
  const double misses =
      static_cast<double>(server1.cache.misses - server0.cache.misses);
  const auto rejected = [](const sp::serve::Server::Stats& s) {
    return s.rejected_invalid + s.rejected_queue_full + s.deadline_exceeded;
  };
  layer->Add("persist.replayed_ops", static_cast<double>(prep->replayed_ops));
  layer->Add("persist.wal_appends", appends);
  layer->Add("persist.wal_bytes_per_op",
             SafeDiv(static_cast<double>(bytes1 - bytes0), appends));
  layer->Add("persist.retries", static_cast<double>(retries1 - retries0));
  layer->Add("core.ingest_s", service_ms / 1e3);
  layer->Add("core.identify_ms", identify_ms);
  layer->Add("core.ingest_self_ms", service_ms - identify_ms);
  layer->Add("core.comparisons_per_snippet",
             SafeDiv(static_cast<double>(comparisons1 - comparisons0),
                     static_cast<double>(acked_snippets)));
  layer->Add("serve.capture_ms_per_op",
             SafeDiv(epochs1.total_capture_ms - epochs0.total_capture_ms,
                     appends));
  layer->Add("serve.bytes_copied_per_epoch",
             SafeDiv(static_cast<double>(epochs1.total_bytes_copied -
                                         epochs0.total_bytes_copied),
                     published));
  layer->Add("serve.epochs_published", published);
  layer->Add("serve.cache_hit_rate", SafeDiv(hits, hits + misses));
  layer->Add("serve.rejected",
             static_cast<double>(rejected(server1) - rejected(server0)));
  layer->Add("cow.bytes_copied", static_cast<double>(cow1.bytes - cow0.bytes));
  layer->Add("gen.writes", static_cast<double>(writes.latency_ms.size()));
  layer->Add("gen.queries", static_cast<double>(query_ms.size()));
  layer->Add("gen.writer_late_ms_max", writes.late_max_ms);
}

/// Scores a prepared serve_live corpus: reopens its prepared directory
/// (one engine thread, as served), sends the feed's ops with nothing else
/// running, then Align() and pairwise F1 from eval::ScoreEngine: the
/// quality of the stories served after the feed. For a corpus the run
/// served, the state before that Align() must equal the served one. Runs
/// after every pass, untimed, and uses up the prepared directory.
void ScoreServeCorpus(const ServeCorpus& prep, Outcome* outcome,
                      Samples* e2e) {
  sp::datagen::ImportedCorpus corpus;
  sp::datagen::ImportReport report;
  if (!LoadCorpus(prep.tsv, &corpus, &report, outcome)) return;
  sp::Result<std::unique_ptr<sp::persist::DurableEngine>> opened =
      sp::persist::DurableEngine::Open(prep.dir, Durability(),
                                       sp::EngineConfig{});
  if (!outcome->Gate(opened.ok(), "replay Open")) return;
  sp::persist::DurableEngine& durable = *opened.value();
  bool ok = true;
  for (auto& op : Batches(corpus.snippets, prep.restored,
                          corpus.snippets.size(), kLiveBatch)) {
    ok = durable.AddSnippets(std::move(op)).ok() && ok;
  }
  if (prep.have_fingerprint) {
    outcome->Gate(sp::EngineStateFingerprint(durable.engine()) ==
                      prep.fingerprint,
                  "replayed feed reproduces the served fingerprint");
  }
  ok = durable.Align().ok() && ok;
  const sp::eval::QualityScores scores =
      sp::eval::ScoreEngine(durable.engine());
  ok = durable.Close().ok() && ok;
  if (!outcome->Gate(ok, "replayed feed, Align and Close OK")) return;
  std::printf("corpus %d: SI-F1 %.4f, SA-F1 %.4f%s\n", prep.index,
              scores.si_pairwise.f1, scores.sa_pairwise.f1,
              prep.have_fingerprint ? "" : " (replayed only)");
  e2e->Add("si_f1", scores.si_pairwise.f1);
  e2e->Add("sa_f1", scores.sa_pairwise.f1);
}

/// A corpus's end-to-end values from its passes: the writer's latencies
/// are each op's median over the passes, and detect_s sums each op's
/// median service time. A client's n-th request is the same query in
/// every pass, so query latencies are each request's median over the
/// passes that reached it, and the rate is what the closed-loop clients
/// sustain at those latencies: the sum over clients of requests / their
/// summed latency.
void AddServeCorpus(const ServeCorpus& corpus, Samples* e2e) {
  AddMedians(corpus.e2e, e2e);
  e2e->Add("detect_s", Sum(corpus.e2e.OpMedians("service_ms")) / 1e3);
  AddLatencies("write", corpus.e2e.OpMedians("write_ms"), e2e);
  std::vector<double> queries;
  double qps = 0.0;
  for (size_t c = 0; c < kClients; ++c) {
    const std::vector<double> client =
        corpus.e2e.OpMedians("client_ms." + std::to_string(c));
    queries.insert(queries.end(), client.begin(), client.end());
    qps += SafeDiv(static_cast<double>(client.size()), Sum(client) / 1e3);
  }
  AddLatencies("query", queries, e2e);
  e2e->Add("query_qps", qps);
}

// --- Main -----------------------------------------------------------------

std::string SpansJson(const std::vector<Span>& spans) {
  std::string out = "{\"spans\": [\n";
  char line[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"start_ns\": %" PRId64
                  ", \"end_ns\": %" PRId64 ", \"parent\": %d, \"request\": "
                  "%" PRIu64 "}\n",
                  i == 0 ? "" : ",", s.name, s.start_ns, s.end_ns, s.parent,
                  s.request);
    out += line;
  }
  return out + "]}\n";
}

int Main(int argc, char** argv) {
  // Every line reaches the output as it is printed, so an abort later in
  // the run cannot lose what was already measured.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload detect_batch|serve_live --seed N "
                 "--seconds S --trace 0|1 --data-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.data_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const bool detect = args.workload == "detect_batch";
  Tracer tracer_storage;
  Tracer* tracer = args.trace ? &tracer_storage : nullptr;
  Outcome outcome;
  Samples e2e, layer;

  // Each corpus has its own seed derived from --seed and is processed
  // `passes` times, in passes over all corpora; the number of corpora
  // follows --seconds.
  const int passes = detect ? kDetectPasses : kServePasses;
  const double pass_seconds = detect ? kDetectPassSeconds : kServePassSeconds;
  const int corpora = std::max(
      1, static_cast<int>(args.seconds / (passes * pass_seconds)));
  const int snippets_per_corpus = detect ? kDetectSnippets : kServeSnippets;
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  // serve_live spins on every idle CPU until the measurements are taken.
  auto keep_awake = std::make_unique<KeepAwake>(detect ? 0 : hardware_threads);

  // Generator: every corpus is written as TSV before the program's part
  // starts, and the TSV is the program's only input. serve_live's corpora
  // past the served ones are only replayed for the quality scores.
  const int generated =
      detect ? corpora : std::max(corpora, kServeQualityCorpora);
  std::printf("header hardware_threads=%u keep_awake=%u data_fs=%s "
              "fsync=on-rotate engine_threads=%zu server_threads=%zu "
              "clients=%zu corpora=%d passes=%d scored_corpora=%d "
              "corpus_snippets=%d seed=%" PRIu64 "\n",
              hardware_threads, keep_awake->spinning(),
              FileSystemName(args.data_dir),
              detect ? DetectThreads() : size_t{1},
              detect ? size_t{0} : kServerThreads,
              detect ? size_t{0} : kClients, corpora, passes, generated,
              snippets_per_corpus, args.seed);
  std::vector<DetectCorpus> detect_corpora;
  std::vector<ServeCorpus> serve_corpora;
  for (int k = 0; k < generated && outcome.failed_gates.empty(); ++k) {
    const uint64_t seed = args.seed * 1'000'003ULL + static_cast<uint64_t>(k);
    const std::string tsv =
        args.data_dir + "/corpus-" + std::to_string(k) + ".tsv";
    const size_t snippets =
        WriteCorpus(seed, snippets_per_corpus, tsv, &outcome);
    std::printf("corpus %d: seed %" PRIu64 ", %zu snippets\n", k, seed,
                snippets);
    if (detect) {
      DetectCorpus& corpus = detect_corpora.emplace_back();
      corpus.index = k;
      corpus.seed = seed;
      corpus.tsv = tsv;
    } else {
      ServeCorpus& corpus = serve_corpora.emplace_back();
      corpus.index = k;
      corpus.seed = seed;
      corpus.tsv = tsv;
      corpus.dir = args.data_dir + "/prep-" + std::to_string(k);
    }
  }
  if (outcome.failed_gates.empty()) {
    Samples discarded;
    DetectCorpus warm_up;
    warm_up.index = -1;
    warm_up.seed = ~args.seed;
    warm_up.tsv = args.data_dir + "/warm-up.tsv";
    WriteCorpus(warm_up.seed, kWarmupSnippets, warm_up.tsv, &outcome);
    if (outcome.failed_gates.empty()) {
      DetectPass(args, &warm_up, 0, nullptr, nullptr, &outcome, &discarded,
                 &discarded);
    }
    RemoveTree(warm_up.tsv);
  }
  for (int k = 0; k < corpora && !serve_corpora.empty(); ++k) {
    if (outcome.failed_gates.empty()) {
      PrepareServe(&serve_corpora[static_cast<size_t>(k)], &outcome);
    }
  }

  Samples pooled;
  HostSpeed host;
  const int64_t measured_start = NowNs();
  int passes_done = 0;
  for (; passes_done < passes && outcome.failed_gates.empty(); ++passes_done) {
    for (int k = 0; k < corpora && outcome.failed_gates.empty(); ++k) {
      if (detect) {
        DetectPass(args, &detect_corpora[static_cast<size_t>(k)], passes_done,
                   &host, tracer, &outcome, &pooled, &layer);
      } else {
        ServePass(args, &serve_corpora[static_cast<size_t>(k)], passes_done,
                  &host, tracer, &outcome, &pooled, &layer);
      }
    }
  }
  const int64_t measured_ns = NowNs() - measured_start;
  keep_awake.reset();
  std::printf("corpora %d, passes %d\n", corpora, passes_done);
  // Timings are reported at the reference host speed: divided by how much
  // slower than the reference the host ran, from the probes spread over
  // the run (README.md, Noise).
  const double factor = host.Factor();
  std::printf("diag host speed: %zu probes, median %.4f ms, reference %.1f "
              "ms, factor %.4f\n",
              host.probes(), host.median_ms(), kReferenceProbeMs, factor);
  for (const DetectCorpus& corpus : detect_corpora) {
    AddDetectCorpus(corpus, &e2e);
  }
  for (ServeCorpus& corpus : serve_corpora) {
    if (!outcome.failed_gates.empty()) break;
    const bool served = corpus.index < corpora;
    if (served) AddServeCorpus(corpus, &e2e);
    if (served || PrepareServe(&corpus, &outcome)) {
      ScoreServeCorpus(corpus, &outcome, &e2e);
    }
  }

  // p99 over every sample of every pass, printed with its counts, not
  // gated.
  const Quantile query_p99 = pooled.PooledPercentile("query", 99);
  const Quantile write_p99 = pooled.PooledPercentile("write", 99);
  PrintQuantile("query_p99_ms", query_p99, "ms");
  PrintQuantile("write_p99_ms", write_p99, "ms");
  if (detect) {
    const Quantile write_p50 = e2e.PooledPercentile("write", 50);
    const Quantile write_p90 = e2e.PooledPercentile("write", 90);
    PrintQuantile("write_p90_ms", write_p90, "ms");
    e2e.Add("write_p50_ms", write_p50.value);
    e2e.Add("write_p90_ms", write_p90.value);
  } else {
    layer.Add("gen.write_p99_ms", write_p99.value);
    layer.Add("gen.query_p99_ms", query_p99.value);
  }

  std::string metrics;
  if (tracer == nullptr) {
    metrics = EmitMetrics("e2e", kEndToEnd, e2e, factor);
  } else {
    const std::vector<Span> spans = tracer->spans();
    layer.Add("trace.spans", static_cast<double>(spans.size()));
    layer.Add("trace.overhead_pct",
              100.0 * static_cast<double>(spans.size()) * SpanCostNs() /
                  static_cast<double>(measured_ns));
    // The traced run's own end-to-end values, to compare with untraced
    // runs: the difference is the tracing overhead.
    EmitMetrics("traced_e2e", kEndToEnd, e2e, factor);
    metrics = EmitMetrics("layer", kPerLayer, layer, factor);
    if (!args.trace_out.empty() &&
        !sp::WriteStringToFile(args.trace_out, SpansJson(spans)).ok()) {
      std::printf("warning: cannot write %s\n", args.trace_out.c_str());
    }
  }
  RemoveTree(args.data_dir);

  const bool correct = outcome.failed_gates.empty() && passes_done > 0;
  for (const std::string& gate : outcome.failed_gates) {
    std::printf("failed gate: %s\n", gate.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
