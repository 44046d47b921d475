// storypivot_cli — command-line front end over the StoryPivot library.
//
// Subcommands:
//   generate <out.tsv> [--snippets N] [--sources N] [--stories N] [--seed S]
//       Generate a synthetic multi-source corpus (GDELT-style TSV).
//   detect <in.tsv> [--mode temporal|complete] [--window-days W]
//          [--refine] [--diagnose] [--snapshot out.sp] [--json out.json]
//          [--wal-dir DIR] [--strict]
//       Run story identification + alignment over a TSV corpus; print the
//       integrated story table and quality (when truth labels exist).
//       Malformed input rows are QUARANTINED by default — skipped,
//       counted and reported with line numbers; --strict fails the run
//       on the first bad row instead. With --wal-dir, every mutation is
//       write-ahead logged to DIR and the final state checkpointed, so
//       the run is crash-recoverable.
//   recover <wal-dir> [--checkpoint]
//       Recover the engine state from a durability directory (newest
//       checkpoint + WAL tail) and print its stories. --checkpoint also
//       compacts the directory afterwards. A missing or unreadable
//       directory exits non-zero with a one-line diagnostic that
//       classifies the failure (corruption or plain error). Both detect
//       and recover refuse a directory written by the removed sharded
//       engine (one holding manifest.json) the same way, writing
//       nothing into it.
//   load <snapshot.sp>
//       Load a previously saved engine snapshot and print its stories.
//   query <in.tsv> <entity>
//       Detect stories, then show the context card for an entity.
//   search <in.tsv> "<query>" [--topk N] [--from T] [--to T]
//          [--mode and|or]
//       Detect stories, then rank them against a free-text query with
//       BM25 over the inverted index (--from/--to bound snippet
//       timestamps inclusively, as YYYY-MM-DD or epoch seconds).
//
// Examples:
//   storypivot_cli generate /tmp/news.tsv --snippets 5000
//   storypivot_cli detect /tmp/news.tsv --refine --snapshot /tmp/run.sp
//   storypivot_cli detect /tmp/news.tsv --wal-dir /tmp/news.wal
//   storypivot_cli recover /tmp/news.wal
//   storypivot_cli load /tmp/run.sp
//   storypivot_cli query /tmp/news.tsv Ukraine
//   storypivot_cli search /tmp/news.tsv "MH17 crash" --topk 5

#include <cstdio>
#include <limits>
#include <string>

#include "core/engine.h"
#include "core/query.h"
#include "core/snapshot.h"
#include "datagen/corpus.h"
#include "datagen/gdelt_export.h"
#include "eval/experiment.h"
#include "persist/durable_engine.h"
#include "search/search_engine.h"
#include "text/knowledge_base.h"
#include "util/csv.h"
#include "util/strings.h"
#include "eval/diagnostics.h"
#include "examples/flags.h"
#include "viz/ascii.h"
#include "viz/json_export.h"

namespace {

using namespace storypivot;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  storypivot_cli generate <out.tsv> [--snippets N] "
               "[--sources N] [--stories N] [--seed S]\n"
               "  storypivot_cli detect <in.tsv> [--mode temporal|complete]"
               " [--window-days W] [--refine] [--diagnose]\n"
               "                 [--snapshot out.sp] [--json out.json]"
               " [--wal-dir DIR] [--strict]\n"
               "  storypivot_cli recover <wal-dir> [--checkpoint]\n"
               "  storypivot_cli load <snapshot.sp>\n"
               "  storypivot_cli query <in.tsv> <entity>\n"
               "  storypivot_cli search <in.tsv> \"<query>\" [--topk N]"
               " [--from T] [--to T] [--mode and|or]\n");
  return 2;
}

/// Prints a bad flag value and the usage lines; exit status 2.
int BadFlag(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return Usage();
}

// Time bounds for `search --from/--to`: either a raw Timestamp (epoch
// seconds) or a date as ParseDateTime reads it. False on a malformed value.
bool FlagTime(const Flags& flags, const char* name, Timestamp def,
              Timestamp* out) {
  std::string value;
  *out = def;
  if (!flags.Get(name, &value)) return true;
  if (ParseDateTime(value, out) || ParseInt64(value, out)) return true;
  std::fprintf(stderr,
               "bad time for %s: %s (want YYYY-MM-DD, YYYY-MM-DD HH:MM or "
               "epoch seconds)\n",
               name, value.c_str());
  return false;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::string out_path = argv[0];
  Flags flags(argc, argv);
  datagen::CorpusConfig config;
  config.target_num_snippets =
      static_cast<int>(flags.Int("--snippets", 5000, 1, 100'000'000));
  config.num_sources =
      static_cast<int>(flags.Int("--sources", 10, 1, 10'000));
  config.num_stories =
      static_cast<int>(flags.Int("--stories", 40, 1, 1'000'000));
  config.seed = static_cast<uint64_t>(
      flags.Int("--seed", 42, 0, std::numeric_limits<int64_t>::max()));
  if (!flags.status().ok()) return BadFlag(flags.status());
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  Status status = datagen::ExportTsvToFile(corpus, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu snippets from %zu sources (%zu true stories) to "
              "%s\n",
              corpus.snippets.size(), corpus.sources.size(),
              corpus.num_truth_stories(), out_path.c_str());
  return 0;
}

/// Loads the TSV corpus at `path`. Permissive by default: malformed rows
/// are quarantined and summarised on stderr (line numbers + reasons, the
/// first few in full), keeping partial feeds ingestable; `strict` fails
/// on the first bad row instead.
Result<datagen::ImportedCorpus> LoadCorpus(const std::string& path,
                                           bool strict) {
  Result<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  if (strict) return datagen::ImportTsv(contents.value());

  datagen::ImportReport report;
  Result<datagen::ImportedCorpus> imported =
      datagen::ImportTsvPermissive(contents.value(), &report);
  if (!imported.ok()) return imported.status();
  if (!report.skipped.empty()) {
    constexpr size_t kShown = 8;
    for (size_t i = 0; i < report.skipped.size() && i < kShown; ++i) {
      std::fprintf(stderr, "%s: line %zu: %s (row quarantined)\n",
                   path.c_str(), report.skipped[i].line,
                   report.skipped[i].reason.c_str());
    }
    if (report.skipped.size() > kShown) {
      std::fprintf(stderr, "%s: ... %zu more quarantined rows\n",
                   path.c_str(), report.skipped.size() - kShown);
    }
    std::fprintf(stderr,
                 "%s: quarantined %zu of %zu rows, imported %zu "
                 "(use --strict to fail on the first bad row)\n",
                 path.c_str(), report.skipped.size(), report.rows_seen,
                 report.rows_imported);
  }
  return imported;
}

/// One-line diagnostic for a failed durability-directory open, with a
/// non-zero exit for scripting. Classifies the failure: CORRUPTION
/// (bytes on disk changed after they were acknowledged — the message
/// carries segment and byte offset) or plain error (e.g. the directory
/// does not exist).
int WalOpenFailed(const char* verb, const std::string& dir,
                  const Status& status) {
  const char* kind =
      std::string(status.message()).find("corruption") != std::string::npos
          ? "corruption"
          : "error";
  std::fprintf(stderr, "%s: %s: [%s] %s\n", verb, dir.c_str(), kind,
               std::string(status.message()).c_str());
  return 1;
}

/// Refuses a directory written by the removed sharded engine (its root
/// holds a shard manifest and the WALs live in shard-NNN/ subdirectories)
/// with a one-line diagnostic and exit 1, before anything is written:
/// opening it as a plain durability directory would "recover" an empty
/// engine, or start a fresh run beside the shard data.
bool RefuseShardedDir(const char* verb, const std::string& dir) {
  if (!FileExists(dir + "/manifest.json")) return false;
  std::fprintf(stderr,
               "%s: %s: [error] sharded data directory (manifest.json); "
               "sharding was removed — re-run detect into an empty "
               "--wal-dir\n",
               verb, dir.c_str());
  return true;
}

Result<std::unique_ptr<StoryPivotEngine>> DetectFromCorpus(
    const datagen::ImportedCorpus& corpus, const EngineConfig& config) {
  auto engine = std::make_unique<StoryPivotEngine>(config);
  Status vocab = engine->ImportVocabularies(*corpus.entity_vocabulary,
                                            *corpus.keyword_vocabulary);
  if (!vocab.ok()) return vocab;
  for (const SourceInfo& source : corpus.sources) {
    engine->RegisterSource(source.name);
  }
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;
    Result<SnippetId> added = engine->AddSnippet(std::move(copy));
    if (!added.ok()) return added.status();
  }
  return engine;
}

/// Ingests the TSV corpus through a DurableEngine so every mutation lands
/// in the write-ahead log under `wal_dir` before it is acknowledged.
Result<std::unique_ptr<persist::DurableEngine>> DetectDurable(
    const datagen::ImportedCorpus& corpus, const EngineConfig& config,
    const std::string& wal_dir) {
  persist::DurabilityOptions options;
  options.checkpoint_every_ops = 2000;
  Result<std::unique_ptr<persist::DurableEngine>> opened =
      persist::DurableEngine::Open(wal_dir, options, config);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<persist::DurableEngine> durable =
      std::move(opened.value());
  if (durable->next_lsn() != 0) {
    return Status::FailedPrecondition(StrFormat(
        "%s already holds a recorded run (%llu ops) — inspect it with "
        "`storypivot_cli recover %s` or point --wal-dir at an empty "
        "directory",
        wal_dir.c_str(),
        static_cast<unsigned long long>(durable->next_lsn()),
        wal_dir.c_str()));
  }
  Status vocab = durable->ImportVocabularies(*corpus.entity_vocabulary,
                                             *corpus.keyword_vocabulary);
  if (!vocab.ok()) return vocab;
  for (const SourceInfo& source : corpus.sources) {
    Result<SourceId> registered = durable->RegisterSource(source.name);
    if (!registered.ok()) return registered.status();
  }
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;
    Result<SnippetId> added = durable->AddSnippet(std::move(copy));
    if (!added.ok()) return added.status();
  }
  return durable;
}

void PrintEngineSummary(StoryPivotEngine& engine) {
  // Skip the realign when the caller already holds a current alignment —
  // on a durable engine that alignment came from the logged Align().
  if (!engine.has_alignment()) engine.Align();
  StoryQuery query(&engine);
  std::vector<StoryOverview> integrated = query.IntegratedStories();
  size_t shown = std::min<size_t>(integrated.size(), 15);
  integrated.resize(shown);
  std::printf("%s", viz::RenderStoryTable(integrated).c_str());
  std::printf("\n%zu snippets, %zu per-source stories, %zu integrated "
              "stories; SI %.1f ms wall (%.1f ms summed over shards), "
              "align %.1f ms\n",
              engine.store().size(), engine.TotalStories(),
              engine.alignment().stories.size(),
              engine.stats().identify_time_ms, engine.stats().identify_cpu_ms,
              engine.stats().align_time_ms);
  // Quality, when the corpus carried ground truth.
  bool has_truth = false;
  engine.store().ForEach([&](const Snippet& snippet) {
    has_truth |= snippet.truth_story >= 0;
  });
  if (has_truth) {
    eval::QualityScores scores = eval::ScoreEngine(engine);
    std::printf("quality vs ground truth: SI-F1=%.3f SA-F1=%.3f NMI=%.3f\n",
                scores.si_pairwise.f1, scores.sa_pairwise.f1,
                scores.sa_nmi);
  }
}

int CmdDetect(int argc, char** argv) {
  if (argc < 1) return Usage();
  Flags flags(argc, argv);
  EngineConfig config;
  std::string mode;
  if (flags.Get("--mode", &mode) && mode == "complete") {
    config.mode = IdentificationMode::kComplete;
  }
  config.identifier.window =
      flags.Int("--window-days", 7, 0, 3650) * kSecondsPerDay;
  if (!flags.status().ok()) return BadFlag(flags.status());

  Result<datagen::ImportedCorpus> imported =
      LoadCorpus(argv[0], flags.Has("--strict"));
  if (!imported.ok()) {
    std::fprintf(stderr, "%s\n", imported.status().ToString().c_str());
    return 1;
  }

  // With --wal-dir, ingestion runs through the durability layer; without
  // it, through a plain in-memory engine. Either way `engine` points at
  // the engine to summarise.
  std::unique_ptr<persist::DurableEngine> durable;
  std::unique_ptr<StoryPivotEngine> plain;
  std::string wal_dir;
  if (flags.Get("--wal-dir", &wal_dir)) {
    if (RefuseShardedDir("detect --wal-dir", wal_dir)) return 1;
    Result<std::unique_ptr<persist::DurableEngine>> opened =
        DetectDurable(imported.value(), config, wal_dir);
    if (!opened.ok()) {
      return WalOpenFailed("detect --wal-dir", wal_dir, opened.status());
    }
    durable = std::move(opened.value());
  } else {
    Result<std::unique_ptr<StoryPivotEngine>> detected =
        DetectFromCorpus(imported.value(), config);
    if (!detected.ok()) {
      std::fprintf(stderr, "%s\n", detected.status().ToString().c_str());
      return 1;
    }
    plain = std::move(detected.value());
  }
  StoryPivotEngine* engine = durable ? &durable->engine() : plain.get();

  if (flags.Has("--refine")) {
    RefinementStats stats;
    if (durable) {
      Result<RefinementStats> refined = durable->Refine();
      if (!refined.ok()) {
        std::fprintf(stderr, "%s\n", refined.status().ToString().c_str());
        return 1;
      }
      stats = refined.value();
    } else {
      stats = engine->Refine();
    }
    std::printf("refinement: moved %d snippets, split %d stories\n",
                stats.snippets_moved, stats.stories_split);
  }
  if (durable) {
    // Alignment moves the integrated-story-id cursor, so on a durable
    // engine it must go through the log.
    Status aligned = durable->Align();
    if (!aligned.ok()) {
      std::fprintf(stderr, "%s\n", aligned.ToString().c_str());
      return 1;
    }
  }
  PrintEngineSummary(*engine);
  if (flags.Has("--diagnose")) {
    std::printf("\n%s",
                eval::DiagnoseAlignment(*engine).ToString().c_str());
  }
  std::string json_path;
  if (flags.Get("--json", &json_path)) {
    Status written = WriteStringToFile(
        json_path, viz::ExportEngineJson(*engine));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("JSON payload written to %s\n", json_path.c_str());
  }

  std::string snapshot_path;
  if (flags.Get("--snapshot", &snapshot_path)) {
    Status saved = SaveSnapshotToFile(*engine, snapshot_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("snapshot saved to %s\n", snapshot_path.c_str());
  }

  if (durable) {
    const uint64_t ops = durable->next_lsn();
    Status finished = durable->Checkpoint();
    if (finished.ok()) finished = durable->Close();
    if (!finished.ok()) {
      std::fprintf(stderr, "%s\n", finished.ToString().c_str());
      return 1;
    }
    std::printf("durable: %llu ops logged and checkpointed under %s "
                "(recover with `storypivot_cli recover %s`)\n",
                static_cast<unsigned long long>(ops), wal_dir.c_str(),
                wal_dir.c_str());
  }
  return 0;
}

int CmdRecover(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string dir = argv[0];
  // Open() creates missing directories (that is right for `detect`,
  // which starts new runs), so a recover of a nonexistent path must be
  // caught here or it would "recover" an empty engine.
  if (!FileExists(dir)) {
    std::fprintf(stderr,
                 "recover: %s: [error] no durability directory here — "
                 "nothing to recover\n",
                 dir.c_str());
    return 1;
  }
  if (RefuseShardedDir("recover", dir)) return 1;
  Result<std::unique_ptr<persist::DurableEngine>> opened =
      persist::DurableEngine::Open(dir);
  if (!opened.ok()) {
    return WalOpenFailed("recover", dir, opened.status());
  }
  persist::DurableEngine& durable = *opened.value();
  std::printf("recovered %llu ops from %s (%llu replayed from the WAL "
              "tail)\n",
              static_cast<unsigned long long>(durable.next_lsn()),
              durable.dir().c_str(),
              static_cast<unsigned long long>(
                  durable.ops_since_checkpoint()));
  Status aligned = durable.Align();
  if (!aligned.ok()) {
    std::fprintf(stderr, "%s\n", aligned.ToString().c_str());
    return 1;
  }
  PrintEngineSummary(durable.engine());
  if (Flags(argc, argv).Has("--checkpoint")) {
    Status compacted = durable.Checkpoint();
    if (!compacted.ok()) {
      std::fprintf(stderr, "%s\n", compacted.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed; covered WAL segments dropped\n");
  }
  Status closed = durable.Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "%s\n", closed.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdLoad(int argc, char** argv) {
  if (argc < 1) return Usage();
  Result<std::unique_ptr<StoryPivotEngine>> engine =
      LoadSnapshotFromFile(argv[0]);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded snapshot %s\n", argv[0]);
  PrintEngineSummary(*engine.value());
  return 0;
}

Result<std::unique_ptr<StoryPivotEngine>> DetectFromTsv(int argc,
                                                        char** argv) {
  Result<datagen::ImportedCorpus> imported =
      LoadCorpus(argv[0], Flags(argc, argv).Has("--strict"));
  if (!imported.ok()) return imported.status();
  return DetectFromCorpus(imported.value(), EngineConfig{});
}

int CmdQuery(int argc, char** argv) {
  if (argc < 2) return Usage();
  Result<std::unique_ptr<StoryPivotEngine>> engine =
      DetectFromTsv(argc, argv);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  engine.value()->Align();
  text::KnowledgeBase kb = text::KnowledgeBase::WithEmbeddedWorldFacts();
  StoryQuery query(engine.value().get());
  query.set_knowledge_base(&kb);
  std::printf("%s",
              viz::RenderEntityContext(query.Context(argv[1])).c_str());
  return 0;
}

int CmdSearch(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags(argc, argv);
  search::SearchOptions options;
  options.k = static_cast<size_t>(flags.Int("--topk", 10, 1, 1000));
  if (!flags.status().ok()) return BadFlag(flags.status());
  std::string mode;
  if (flags.Get("--mode", &mode) && mode == "and") {
    options.mode = search::MatchMode::kAll;
  }
  std::string bound;
  if (flags.Get("--from", &bound) || flags.Get("--to", &bound)) {
    options.filter_time = true;
    if (!FlagTime(flags, "--from", 0, &options.from) ||
        !FlagTime(flags, "--to", std::numeric_limits<Timestamp>::max(),
                  &options.to)) {
      return Usage();
    }
  }
  // An inverted --from/--to window is a typed error, not an empty
  // result (DESIGN.md §11 — silence is indistinguishable from "no
  // stories in range").
  if (Status valid = search::ValidateSearchOptions(options); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }

  Result<std::unique_ptr<StoryPivotEngine>> engine =
      DetectFromTsv(argc, argv);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  engine.value()->Align();
  search::SearchEngine searcher(engine.value().get());

  search::ParsedQuery parsed = searcher.Parse(argv[1]);
  for (const search::QueryTerm& term : parsed.terms) {
    const char* kind = term.field == search::Field::kEntity ? "entity"
                       : term.field == search::Field::kKeyword
                           ? "keyword"
                           : "event-type";
    std::printf("term: %s (%s)\n", term.surface.c_str(), kind);
  }
  for (const std::string& word : parsed.unmatched) {
    std::printf("ignored: %s\n", word.c_str());
  }
  if (parsed.empty()) {
    std::printf("no recognized query terms\n");
    return 0;
  }

  std::vector<search::StoryHit> hits = searcher.Search(parsed, options);
  if (hits.empty()) {
    std::printf("no matching stories\n");
    return 0;
  }
  StoryQuery query(engine.value().get());
  int rank = 0;
  for (const search::StoryHit& hit : hits) {
    const Story* story =
        engine.value()->partition(hit.source)->FindStory(hit.story);
    std::printf("#%d  score=%.4f  matched=%u/%zu  source=%s\n", ++rank,
                hit.score, hit.matched_terms, parsed.terms.size(),
                engine.value()->SourceName(hit.source).c_str());
    std::printf("%s",
                viz::RenderStoryOverview(query.Overview(*story, false))
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  int sub_argc = argc - 2;
  char** sub_argv = argv + 2;
  if (command == "generate") return CmdGenerate(sub_argc, sub_argv);
  if (command == "detect") return CmdDetect(sub_argc, sub_argv);
  if (command == "recover") return CmdRecover(sub_argc, sub_argv);
  if (command == "load") return CmdLoad(sub_argc, sub_argv);
  if (command == "query") return CmdQuery(sub_argc, sub_argv);
  if (command == "search") return CmdSearch(sub_argc, sub_argv);
  return Usage();
}
