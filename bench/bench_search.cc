// Search bench (DESIGN.md §11): what the inverted index buys over the
// index-free scan path, on corpora large enough that the scan cost is
// the story count, not constant factors. Per corpus size, ranked
// free-text search: BM25 top-k through RankStories (postings walk +
// MaxScore pruning) vs RankStoriesScan (every story of every partition,
// plus a store pass for document frequencies). Results are checked
// bit-identical before timing.
//
// Writes BENCH_search.json. Run with --smoke for the CI-sized variant
// (one small corpus, few repetitions, same assertions), which prints the
// JSON instead (EmitBenchJson).

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "search/ranker.h"
#include "search/search_engine.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace storypivot::bench {
namespace {

using search::Field;
using search::ParsedQuery;
using search::QueryTerm;
using search::SearchOptions;
using search::StoryHit;

struct SweepResult {
  int snippets = 0;
  size_t stories = 0;
  size_t queries = 0;
  double indexed_ms_per_query = 0.0;
  double scan_ms_per_query = 0.0;
  double speedup = 0.0;
};

/// Deterministic query workload: vocabulary terms that actually occur,
/// ordered by descending document frequency, combined round-robin into
/// multi-term queries (one entity + two keywords) spanning frequent and
/// rare terms.
std::vector<ParsedQuery> MakeQueries(const StoryPivotEngine& engine,
                                     const search::SearchEngine& searcher,
                                     size_t count) {
  auto terms_by_df = [&](Field field, const text::Vocabulary& vocabulary) {
    std::vector<std::pair<size_t, text::TermId>> terms;
    for (text::TermId id = 0; id < vocabulary.size(); ++id) {
      size_t df = searcher.index().DocumentFrequency(field, id);
      if (df > 0) terms.push_back({df, id});
    }
    std::sort(terms.begin(), terms.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    return terms;
  };
  std::vector<std::pair<size_t, text::TermId>> entities =
      terms_by_df(Field::kEntity, engine.entity_vocabulary());
  std::vector<std::pair<size_t, text::TermId>> keywords =
      terms_by_df(Field::kKeyword, engine.keyword_vocabulary());
  SP_CHECK(!entities.empty() && keywords.size() >= 2);

  std::vector<ParsedQuery> queries;
  for (size_t q = 0; q < count; ++q) {
    ParsedQuery parsed;
    // Stride through the df-ranked lists so queries mix frequent terms
    // (expensive postings) with rare ones (selective).
    const auto& entity = entities[(q * 7) % entities.size()];
    parsed.terms.push_back({Field::kEntity, entity.second, {},
                            engine.entity_vocabulary().TermOf(entity.second)});
    for (size_t j = 0; j < 2; ++j) {
      const auto& keyword = keywords[(q * 5 + j * 3) % keywords.size()];
      if (keyword.second == parsed.terms.back().term &&
          parsed.terms.back().field == Field::kKeyword) {
        continue;
      }
      parsed.terms.push_back(
          {Field::kKeyword, keyword.second, {},
           engine.keyword_vocabulary().TermOf(keyword.second)});
    }
    queries.push_back(std::move(parsed));
  }
  return queries;
}

SweepResult RunSweep(int target_snippets, int repetitions,
                     size_t num_queries) {
  datagen::CorpusConfig config = Fig7CorpusConfig(target_snippets);
  // Many small stories: scan cost is per story, so this is the regime an
  // index must win in.
  config.num_stories = target_snippets / 25;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();

  StoryPivotEngine engine;
  SP_CHECK_OK(engine.ImportVocabularies(*corpus.entity_vocabulary,
                                        *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine.RegisterSource(s.name);
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
  }
  search::SearchEngine searcher(&engine);

  SweepResult result;
  result.snippets = static_cast<int>(corpus.snippets.size());
  result.stories = engine.TotalStories();
  result.queries = num_queries;

  std::vector<ParsedQuery> queries =
      MakeQueries(engine, searcher, num_queries);
  SearchOptions options;
  options.k = 10;

  // Correctness before speed: both paths must agree on every query.
  for (const ParsedQuery& query : queries) {
    std::vector<StoryHit> indexed = searcher.Search(query, options);
    std::vector<StoryHit> scanned =
        search::RankStoriesScan(engine, query, options);
    SP_CHECK(indexed == scanned);
  }

  WallTimer timer;
  for (int rep = 0; rep < repetitions; ++rep) {
    for (const ParsedQuery& query : queries) {
      std::vector<StoryHit> hits = searcher.Search(query, options);
      SP_CHECK(hits.size() <= options.k);
    }
  }
  result.indexed_ms_per_query =
      timer.ElapsedMillis() / static_cast<double>(repetitions * num_queries);

  timer.Restart();
  for (const ParsedQuery& query : queries) {
    std::vector<StoryHit> hits =
        search::RankStoriesScan(engine, query, options);
    SP_CHECK(hits.size() <= options.k);
  }
  result.scan_ms_per_query =
      timer.ElapsedMillis() / static_cast<double>(num_queries);
  result.speedup = result.scan_ms_per_query / result.indexed_ms_per_query;

  return result;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<int> sizes = smoke ? std::vector<int>{2000}
                                 : std::vector<int>{10000, 20000};
  const int repetitions = smoke ? 3 : 20;
  const size_t num_queries = smoke ? 10 : 25;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Ranked search: BM25 top-10, indexed vs full scan "
              "(hardware threads=%u)\n", hw);
  std::printf("%9s %8s %8s %12s %12s %8s\n", "snippets", "stories",
              "queries", "indexed ms", "scan ms", "speedup");
  std::vector<SweepResult> sweeps;
  for (int size : sizes) {
    SweepResult r = RunSweep(size, repetitions, num_queries);
    std::printf("%9d %8zu %8zu %12.4f %12.4f %7.1fx\n", r.snippets,
                r.stories, r.queries, r.indexed_ms_per_query,
                r.scan_ms_per_query, r.speedup);
    sweeps.push_back(r);
  }

  std::string json = StrFormat(
      "{\"bench\":\"search\",\"smoke\":%s,\"hardware_threads\":%u,"
      "\"k\":10,\"sweeps\":[",
      smoke ? "true" : "false", hw);
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& r = sweeps[i];
    json += StrFormat(
        "%s{\"snippets\":%d,\"stories\":%zu,\"queries\":%zu,"
        "\"indexed_ms_per_query\":%.4f,\"scan_ms_per_query\":%.4f,"
        "\"speedup\":%.1f}",
        i == 0 ? "" : ",", r.snippets, r.stories, r.queries,
        r.indexed_ms_per_query, r.scan_ms_per_query, r.speedup);
  }
  json += "]}\n";
  EmitBenchJson("BENCH_search.json", json, smoke);
  return 0;
}

}  // namespace
}  // namespace storypivot::bench

int main(int argc, char** argv) {
  return storypivot::bench::Main(argc, argv);
}
