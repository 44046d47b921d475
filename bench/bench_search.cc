// Search bench (DESIGN.md §11): what the inverted index buys over the
// index-free scan path, on corpora large enough that the scan cost is
// the story count, not constant factors. Per corpus size, ranked
// free-text search: BM25 top-k through RankStories (postings walk +
// MaxScore pruning) vs RankStoriesScan (every story of every partition,
// plus a store pass for document frequencies). Results are checked
// bit-identical before timing. Ranking is timed on prebuilt parses; the
// same queries as free text (entity name plus two keywords, as
// perfbench's analyst queries) time Parse separately, at every corpus
// size and over an entity-vocabulary sweep (500 / 5,000 / 50,000 names)
// whose full run gates parse p50 at the largest vocabulary at no more
// than 2x the smallest's (case-insensitive lookups are O(1), §11.3).
// Every timing is taken over kPasses passes and recorded as its median
// and quartiles, so one noisy pass does not move a row; the gate compares
// medians.
//
// Writes BENCH_search.json. Run with --smoke for the CI-sized variant
// (one small corpus, few repetitions, no 50,000-name vocabulary, same
// assertions, no gate), which prints the JSON instead (EmitBenchJson).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
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

/// Timed passes per measurement.
constexpr int kPasses = 5;

using search::Field;
using search::ParsedQuery;
using search::QueryTerm;
using search::SearchOptions;
using search::StoryHit;

/// `{"q1":..,"median":..,"q3":..}` with `digits` decimals.
std::string QuartilesJson(const Quartiles& q, int digits) {
  return StrFormat("{\"q1\":%.*f,\"median\":%.*f,\"q3\":%.*f}", digits,
                   q.q1, digits, q.median, digits, q.q3);
}

struct SweepResult {
  int snippets = 0;
  size_t stories = 0;
  size_t queries = 0;
  Quartiles indexed_ms_per_query;
  Quartiles scan_ms_per_query;
  Quartiles speedup;
  Quartiles parse_us_per_query;
};

struct VocabularyResult {
  size_t entities = 0;
  size_t queries = 0;
  Quartiles parse_us_p50;
  double unmatched_per_query = 0.0;
};

/// Deterministic query workload: vocabulary terms that actually occur,
/// ordered by descending document frequency, combined round-robin into
/// multi-term queries (one entity + two keywords) spanning frequent and
/// rare terms. `parsed` is prebuilt so ranking is timed alone; `texts`
/// are the same terms as free text, built as perfbench builds its
/// analyst queries.
struct QuerySet {
  std::vector<ParsedQuery> parsed;
  std::vector<std::string> texts;
};

QuerySet MakeQueries(const StoryPivotEngine& engine,
                     const search::SearchEngine& searcher, size_t count) {
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

  QuerySet queries;
  for (size_t q = 0; q < count; ++q) {
    ParsedQuery parsed;
    // Stride through the df-ranked lists so queries mix frequent terms
    // (expensive postings) with rare ones (selective).
    const auto& entity = entities[(q * 7) % entities.size()];
    std::string text = engine.entity_vocabulary().TermOf(entity.second);
    parsed.terms.push_back({Field::kEntity, entity.second, {}, text});
    for (size_t j = 0; j < 2; ++j) {
      const auto& keyword = keywords[(q * 5 + j * 3) % keywords.size()];
      const std::string& stem =
          engine.keyword_vocabulary().TermOf(keyword.second);
      text += ' ';
      text += stem;
      if (keyword.second == parsed.terms.back().term &&
          parsed.terms.back().field == Field::kKeyword) {
        continue;
      }
      parsed.terms.push_back({Field::kKeyword, keyword.second, {}, stem});
    }
    queries.parsed.push_back(std::move(parsed));
    queries.texts.push_back(std::move(text));
  }
  return queries;
}

struct ParseTimes {
  double us_per_query = 0.0;
  double us_p50 = 0.0;
  double unmatched_per_query = 0.0;
};

/// Times each SearchEngine::Parse of `texts`, `repetitions` times over.
ParseTimes TimeParses(const search::SearchEngine& searcher,
                      const std::vector<std::string>& texts,
                      int repetitions) {
  std::vector<double> micros;
  micros.reserve(texts.size() * repetitions);
  size_t unmatched = 0;
  WallTimer timer;
  for (int rep = 0; rep < repetitions; ++rep) {
    for (const std::string& text : texts) {
      timer.Restart();
      ParsedQuery parsed = searcher.Parse(text);
      micros.push_back(static_cast<double>(timer.ElapsedNanos()) / 1e3);
      unmatched += parsed.unmatched.size();
    }
  }
  ParseTimes times;
  for (double us : micros) times.us_per_query += us;
  times.us_per_query /= static_cast<double>(micros.size());
  std::nth_element(micros.begin(), micros.begin() + micros.size() / 2,
                   micros.end());
  times.us_p50 = micros[micros.size() / 2];
  times.unmatched_per_query =
      static_cast<double>(unmatched) / static_cast<double>(micros.size());
  return times;
}

std::unique_ptr<StoryPivotEngine> BuildEngine(const datagen::Corpus& corpus) {
  auto engine = std::make_unique<StoryPivotEngine>();
  SP_CHECK_OK(engine->ImportVocabularies(*corpus.entity_vocabulary,
                                         *corpus.keyword_vocabulary));
  for (const SourceInfo& s : corpus.sources) engine->RegisterSource(s.name);
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(engine->AddSnippet(std::move(copy)));
  }
  return engine;
}

SweepResult RunSweep(int target_snippets, int repetitions,
                     size_t num_queries) {
  datagen::CorpusConfig config = Fig7CorpusConfig(target_snippets);
  // Many small stories: scan cost is per story, so this is the regime an
  // index must win in.
  config.num_stories = target_snippets / 25;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  std::unique_ptr<StoryPivotEngine> built = BuildEngine(corpus);
  const StoryPivotEngine& engine = *built;
  search::SearchEngine searcher(built.get());

  SweepResult result;
  result.snippets = static_cast<int>(corpus.snippets.size());
  result.stories = engine.TotalStories();
  result.queries = num_queries;

  QuerySet queries = MakeQueries(engine, searcher, num_queries);
  SearchOptions options;
  options.k = 10;

  // Correctness before speed: both paths must agree on every query.
  for (const ParsedQuery& query : queries.parsed) {
    std::vector<StoryHit> indexed = searcher.Search(query, options);
    std::vector<StoryHit> scanned =
        search::RankStoriesScan(engine, query, options);
    SP_CHECK(indexed == scanned);
  }

  std::vector<double> indexed, scan, speedup, parse;
  WallTimer timer;
  for (int pass = 0; pass < kPasses; ++pass) {
    timer.Restart();
    for (int rep = 0; rep < repetitions; ++rep) {
      for (const ParsedQuery& query : queries.parsed) {
        std::vector<StoryHit> hits = searcher.Search(query, options);
        SP_CHECK(hits.size() <= options.k);
      }
    }
    indexed.push_back(timer.ElapsedMillis() /
                      static_cast<double>(repetitions * num_queries));

    timer.Restart();
    for (const ParsedQuery& query : queries.parsed) {
      std::vector<StoryHit> hits =
          search::RankStoriesScan(engine, query, options);
      SP_CHECK(hits.size() <= options.k);
    }
    scan.push_back(timer.ElapsedMillis() / static_cast<double>(num_queries));
    speedup.push_back(scan.back() / indexed.back());
    parse.push_back(
        TimeParses(searcher, queries.texts, repetitions).us_per_query);
  }
  result.indexed_ms_per_query = Summarize(indexed);
  result.scan_ms_per_query = Summarize(scan);
  result.speedup = Summarize(speedup);
  result.parse_us_per_query = Summarize(parse);
  return result;
}

/// Parse cost against an entity vocabulary of `num_entities` names (a
/// 2,000-snippet corpus; the names are what grows).
VocabularyResult RunVocabularySweep(int num_entities, int repetitions,
                                    size_t num_queries) {
  datagen::CorpusConfig config = Fig7CorpusConfig(2000);
  config.num_entities = num_entities;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  std::unique_ptr<StoryPivotEngine> engine = BuildEngine(corpus);
  search::SearchEngine searcher(engine.get());

  VocabularyResult result;
  result.entities = engine->entity_vocabulary()->size();
  result.queries = num_queries;
  QuerySet queries = MakeQueries(*engine, searcher, num_queries);
  std::vector<double> p50s;
  for (int pass = 0; pass < kPasses; ++pass) {
    ParseTimes times = TimeParses(searcher, queries.texts, repetitions);
    p50s.push_back(times.us_p50);
    result.unmatched_per_query = times.unmatched_per_query;
  }
  result.parse_us_p50 = Summarize(p50s);
  return result;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<int> sizes = smoke ? std::vector<int>{2000}
                                 : std::vector<int>{10000, 20000};
  std::vector<int> vocabularies = smoke ? std::vector<int>{500, 5000}
                                        : std::vector<int>{500, 5000, 50000};
  const int repetitions = smoke ? 3 : 20;
  const size_t num_queries = smoke ? 10 : 25;
  const size_t parse_queries = smoke ? 50 : 200;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Ranked search: BM25 top-10, indexed vs full scan "
              "(hardware threads=%u; medians [q1, q3] of %d passes)\n",
              hw, kPasses);
  std::printf("%9s %8s %8s %12s %12s %22s %10s\n", "snippets", "stories",
              "queries", "indexed ms", "scan ms", "speedup", "parse us");
  std::vector<SweepResult> sweeps;
  for (int size : sizes) {
    SweepResult r = RunSweep(size, repetitions, num_queries);
    std::printf("%9d %8zu %8zu %12.4f %12.4f %7.1fx [%5.1f, %5.1f] %10.2f\n",
                r.snippets, r.stories, r.queries,
                r.indexed_ms_per_query.median, r.scan_ms_per_query.median,
                r.speedup.median, r.speedup.q1, r.speedup.q3,
                r.parse_us_per_query.median);
    sweeps.push_back(r);
  }

  std::printf("\nQuery parse vs entity-vocabulary size (2,000 snippets)\n");
  std::printf("%9s %8s %26s %14s\n", "entities", "queries", "parse p50 us",
              "unmatched/query");
  std::vector<VocabularyResult> vocab_sweeps;
  for (int entities : vocabularies) {
    VocabularyResult r =
        RunVocabularySweep(entities, repetitions, parse_queries);
    std::printf("%9zu %8zu %10.2f [%5.2f, %5.2f] %14.2f\n", r.entities,
                r.queries, r.parse_us_p50.median, r.parse_us_p50.q1,
                r.parse_us_p50.q3, r.unmatched_per_query);
    vocab_sweeps.push_back(r);
  }

  std::string json = StrFormat(
      "{\"bench\":\"search\",\"smoke\":%s,\"hardware_threads\":%u,"
      "\"k\":10,\"passes\":%d,\"sweeps\":[",
      smoke ? "true" : "false", hw, kPasses);
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& r = sweeps[i];
    json += StrFormat(
        "%s{\"snippets\":%d,\"stories\":%zu,\"queries\":%zu,"
        "\"indexed_ms_per_query\":%s,\"scan_ms_per_query\":%s,"
        "\"speedup\":%s,\"parse_us_per_query\":%s}",
        i == 0 ? "" : ",", r.snippets, r.stories, r.queries,
        QuartilesJson(r.indexed_ms_per_query, 4).c_str(),
        QuartilesJson(r.scan_ms_per_query, 4).c_str(),
        QuartilesJson(r.speedup, 1).c_str(),
        QuartilesJson(r.parse_us_per_query, 2).c_str());
  }
  json += "],\"vocabulary_sweep\":[";
  for (size_t i = 0; i < vocab_sweeps.size(); ++i) {
    const VocabularyResult& r = vocab_sweeps[i];
    json += StrFormat(
        "%s{\"entities\":%zu,\"queries\":%zu,\"parse_us_p50\":%s,"
        "\"unmatched_per_query\":%.2f}",
        i == 0 ? "" : ",", r.entities, r.queries,
        QuartilesJson(r.parse_us_p50, 2).c_str(),
        r.unmatched_per_query);
  }
  json += "]}\n";
  EmitBenchJson("BENCH_search.json", json, smoke);
  if (smoke) return 0;

  // Gate: parsing does not grow with the entity vocabulary.
  const VocabularyResult& small = vocab_sweeps.front();
  const VocabularyResult& large = vocab_sweeps.back();
  const bool ok =
      large.parse_us_p50.median <= 2.0 * small.parse_us_p50.median;
  std::printf("gate: median parse p50 %.2f us at %zu entities %s 2 x %.2f "
              "us at %zu: %s\n",
              large.parse_us_p50.median, large.entities, ok ? "<=" : ">",
              small.parse_us_p50.median, small.entities,
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace storypivot::bench

int main(int argc, char** argv) {
  return storypivot::bench::Main(argc, argv);
}
