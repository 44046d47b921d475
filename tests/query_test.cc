#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "datagen/corpus.h"
#include "datagen/mh17.h"
#include "persist/durable_engine.h"
#include "search/query_pipeline.h"
#include "search/ranker.h"
#include "search/search_engine.h"
#include "serve/read_snapshot.h"
#include "text/porter_stemmer.h"
#include "text/query_canonicalize.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace storypivot {
namespace {

using search::ParsedQuery;
using search::SearchEngine;
using search::SearchOptions;
using search::StoryHit;

std::unique_ptr<StoryPivotEngine> BuildFromCorpus(
    const datagen::Corpus& corpus, size_t num_threads = 1,
    bool batch = false) {
  EngineConfig config;
  config.num_threads = num_threads;
  auto engine = std::make_unique<StoryPivotEngine>(config);
  SP_CHECK_OK(engine->ImportVocabularies(*corpus.entity_vocabulary,
                                         *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    engine->RegisterSource(source.name);
  }
  if (batch) {
    std::vector<Snippet> snippets;
    snippets.reserve(corpus.snippets.size());
    for (const Snippet& snippet : corpus.snippets) {
      Snippet copy = snippet;
      copy.id = kInvalidSnippetId;
      snippets.push_back(std::move(copy));
    }
    SP_CHECK_OK(engine->AddSnippets(std::move(snippets)));
  } else {
    for (const Snippet& snippet : corpus.snippets) {
      Snippet copy = snippet;
      copy.id = kInvalidSnippetId;
      SP_CHECK_OK(engine->AddSnippet(std::move(copy)));
    }
  }
  return engine;
}

std::vector<StoryId> IdsOf(const std::vector<StoryOverview>& overviews) {
  std::vector<StoryId> ids;
  ids.reserve(overviews.size());
  for (const StoryOverview& overview : overviews) ids.push_back(overview.id);
  return ids;
}

/// Asserts that the postings index ranks exactly like the index-free
/// RankStoriesScan oracle for single-term entity, keyword and event-type
/// queries, with k above the story count so every matching story (and
/// its score) is compared, not just a top 10. Event types are also
/// checked under a spread of time windows.
void ExpectIndexMatchesScan(const StoryPivotEngine& engine,
                            const SearchEngine& searcher) {
  SearchOptions options;
  options.k = engine.TotalStories() + 1;
  size_t non_empty = 0;
  auto expect_same = [&](search::QueryTerm term, const SearchOptions& o,
                         const std::string& what) {
    search::ParsedQuery query;
    query.terms.push_back(std::move(term));
    std::vector<StoryHit> indexed = searcher.Search(query, o);
    EXPECT_EQ(indexed, search::RankStoriesScan(engine, query, o)) << what;
    if (!indexed.empty()) ++non_empty;
  };

  const text::Vocabulary& entities = engine.entity_vocabulary();
  for (text::TermId id = 0; id < entities.size(); id += 3) {
    expect_same({search::Field::kEntity, id, {}, {}}, options,
                "entity " + entities.TermOf(id));
  }
  const text::Vocabulary& keywords = engine.keyword_vocabulary();
  for (text::TermId id = 0; id < keywords.size(); id += 5) {
    expect_same({search::Field::kKeyword, id, {}, {}}, options,
                "keyword " + keywords.TermOf(id));
  }
  const Timestamp lo = MakeTimestamp(2014, 6, 1);
  const Timestamp hi = MakeTimestamp(2014, 12, 1);
  const Timestamp mid = (lo + hi) / 2;
  for (const auto& [type, df] : searcher.index().EventTypes()) {
    const search::QueryTerm term{search::Field::kEventType,
                                 text::kInvalidTermId, type, {}};
    expect_same(term, options, "event type " + type);
    for (auto [begin, end] : {std::pair<Timestamp, Timestamp>{lo, hi},
                              {lo, mid},
                              {mid, hi},
                              {mid, mid + kSecondsPerDay}}) {
      SearchOptions windowed = options;
      windowed.filter_time = true;
      windowed.from = begin;
      windowed.to = end;
      expect_same(term, windowed,
                  "event type " + type + " in " + std::to_string(begin) +
                      ".." + std::to_string(end));
    }
  }
  if (engine.TotalStories() > 0) {
    EXPECT_GT(non_empty, 0u);
  }
}

// ------------------------------ Empty engine -------------------------------

TEST(QueryEmptyEngine, AllLookupsReturnNothing) {
  StoryPivotEngine engine;
  SearchEngine searcher(&engine);
  StoryQuery query(&engine);

  EXPECT_FALSE(engine.has_alignment());
  EXPECT_TRUE(query.FindByEntity("Ukraine").empty());
  EXPECT_TRUE(query.FindByKeyword("crash").empty());
  EXPECT_TRUE(searcher.Search("anything at all").empty());
}

// ------------------------- Alias and stem bugfixes -------------------------

class Mh17Query : public ::testing::Test {
 protected:
  Mh17Query() : corpus_(datagen::MakeMh17Corpus()) {
    engine_ = std::make_unique<StoryPivotEngine>(NewsProseEngineConfig());
    for (const SourceInfo& source : corpus_.sources) {
      engine_->RegisterSource(source.name);
    }
    datagen::PopulateMh17Gazetteer(corpus_, engine_->gazetteer());
    for (const Document& doc : corpus_.documents) {
      SP_CHECK_OK(engine_->AddDocument(doc));
    }
    searcher_ = std::make_unique<SearchEngine>(engine_.get());
  }

  datagen::Mh17Corpus corpus_;
  std::unique_ptr<StoryPivotEngine> engine_;
  std::unique_ptr<SearchEngine> searcher_;
};

TEST_F(Mh17Query, FindByEntityResolvesGazetteerAliases) {
  StoryQuery query(engine_.get());
  // "MH17" and "Malaysia Airlines Flight 17" are aliases of the canonical
  // "Malaysia Airlines" entity; all three must hit the same stories.
  std::vector<StoryId> canonical = IdsOf(query.FindByEntity("Malaysia Airlines"));
  ASSERT_FALSE(canonical.empty());
  EXPECT_EQ(IdsOf(query.FindByEntity("MH17")), canonical);
  EXPECT_EQ(IdsOf(query.FindByEntity("Malaysia Airlines Flight 17")),
            canonical);
}

TEST_F(Mh17Query, FindByEntityIsCaseInsensitive) {
  StoryQuery query(engine_.get());
  std::vector<StoryId> exact = IdsOf(query.FindByEntity("Ukraine"));
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(IdsOf(query.FindByEntity("ukraine")), exact);
}

TEST_F(Mh17Query, FindByKeywordStemsTheQuery) {
  StoryQuery query(engine_.get());
  // Ingest stems keywords, so surface forms must be stemmed on query too:
  // "investigations" and "investigation" share the stem "investig".
  std::vector<StoryId> plural = IdsOf(query.FindByKeyword("investigations"));
  ASSERT_FALSE(plural.empty());
  EXPECT_EQ(IdsOf(query.FindByKeyword("investigation")), plural);
  EXPECT_EQ(IdsOf(query.FindByKeyword("investig")), plural);
}

TEST_F(Mh17Query, WorksWithoutAlignment) {
  // No Align() was run: per-source lookups must work regardless.
  ASSERT_FALSE(engine_->has_alignment());
  StoryQuery query(engine_.get());
  EXPECT_FALSE(query.FindByEntity("Ukraine").empty());
  EXPECT_FALSE(searcher_->Search("Ukraine crash").empty());
}

TEST_F(Mh17Query, IndexedAndScanAgree) {
  ExpectIndexMatchesScan(*engine_, *searcher_);
}

TEST_F(Mh17Query, RankedSearchFindsAliasQueries) {
  std::vector<StoryHit> hits = searcher_->Search("MH17 crash");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits,
            search::RankStoriesScan(*engine_, searcher_->Parse("MH17 crash")));
}

// ------------------------------- max_results -------------------------------

TEST(QueryMaxResults, CapsFindByEntity) {
  datagen::CorpusConfig config;
  config.target_num_snippets = 600;
  config.num_stories = 40;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  std::unique_ptr<StoryPivotEngine> engine = BuildFromCorpus(corpus);
  StoryQuery query(engine.get());

  // The entity that the most stories mention, uncapped.
  const text::Vocabulary& entities = *engine->entity_vocabulary();
  std::string busiest;
  size_t most = 0;
  for (text::TermId term = 0; term < entities.size(); ++term) {
    const std::string& name = entities.TermOf(term);
    const size_t n = query.FindByEntity(name, 0, SIZE_MAX).size();
    if (n > most) {
      most = n;
      busiest = name;
    }
  }
  ASSERT_GT(most, kDefaultMaxResults);
  EXPECT_EQ(query.FindByEntity(busiest).size(), kDefaultMaxResults);
  EXPECT_EQ(query.FindByEntity(busiest, 5, 7).size(), 7u);
}

// --------------- Index/scan ranking equivalence (property) -----------------

TEST(QueryEquivalenceProperty, HoldsAcrossSeedsRemovalsAndRefinement) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    datagen::CorpusConfig config;
    config.seed = seed;
    config.target_num_snippets = 150;
    config.num_sources = 4;
    config.num_stories = 12;
    config.num_entities = 60;
    datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
    std::unique_ptr<StoryPivotEngine> engine = BuildFromCorpus(corpus);
    SearchEngine searcher(engine.get());

    ExpectIndexMatchesScan(*engine, searcher);

    // Merges/splits: refinement moves snippets between stories; the
    // snippet-granular index must track the post-refinement assignment.
    engine->Align();
    engine->Refine();
    ExpectIndexMatchesScan(*engine, searcher);

    // Removal: dropping a whole source unposts its snippets.
    SP_CHECK_OK(engine->RemoveSource(corpus.sources[0].id));
    ExpectIndexMatchesScan(*engine, searcher);

    if (::testing::Test::HasFailure()) {
      FAIL() << "equivalence broke at seed " << seed;
    }
  }
}

// ------------------------ Thread-count determinism -------------------------

TEST(QueryThreadDeterminism, IndexIdenticalAcrossThreadCounts) {
  datagen::CorpusConfig config;
  config.target_num_snippets = 1200;
  config.num_sources = 6;
  config.num_stories = 25;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();

  std::unique_ptr<StoryPivotEngine> serial =
      BuildFromCorpus(corpus, /*num_threads=*/1, /*batch=*/true);
  std::unique_ptr<StoryPivotEngine> parallel =
      BuildFromCorpus(corpus, /*num_threads=*/4, /*batch=*/true);
  SearchEngine serial_search(serial.get());
  SearchEngine parallel_search(parallel.get());

  EXPECT_EQ(serial_search.index().num_documents(),
            parallel_search.index().num_documents());
  EXPECT_EQ(serial_search.index().num_postings(),
            parallel_search.index().num_postings());
  EXPECT_EQ(serial_search.index().total_length(),
            parallel_search.index().total_length());

  const text::Vocabulary& entities =
      std::as_const(*serial).entity_vocabulary();
  for (text::TermId id = 0; id < entities.size(); id += 7) {
    std::string query = entities.TermOf(id) + " crisis talks";
    EXPECT_EQ(serial_search.Search(query), parallel_search.Search(query))
        << "query " << query;
  }
  ExpectIndexMatchesScan(*parallel, parallel_search);
}

// --------------------- Rebuild-on-recover equivalence ----------------------

TEST(QueryDurableRecovery, RecoveredIndexMatchesLiveOne) {
  // Empty the durability directory first: a leftover WAL from an earlier
  // run would be recovered into the "fresh" engine and skew every count.
  std::string dir = ::testing::TempDir() + "/sp_query_recover";
  if (FileExists(dir)) {
    Result<std::vector<std::string>> stale = ListDirectory(dir);
    SP_CHECK_OK(stale.status());
    for (const std::string& entry : stale.value()) {
      SP_CHECK_OK(RemoveFile(dir + "/" + entry));
    }
  }
  datagen::CorpusConfig config;
  config.target_num_snippets = 300;
  config.num_sources = 4;
  config.num_stories = 12;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();

  // Live engine: plain in-memory build with an attached index.
  std::unique_ptr<StoryPivotEngine> live = BuildFromCorpus(corpus);
  SearchEngine live_search(live.get());

  // Durable twin of the same stream, checkpointed mid-way so recovery
  // exercises checkpoint restore + WAL tail replay.
  {
    Result<std::unique_ptr<persist::DurableEngine>> opened =
        persist::DurableEngine::Open(dir);
    SP_CHECK_OK(opened.status());
    persist::DurableEngine& durable = *opened.value();
    SP_CHECK_OK(durable.ImportVocabularies(*corpus.entity_vocabulary,
                                           *corpus.keyword_vocabulary));
    for (const SourceInfo& source : corpus.sources) {
      SP_CHECK_OK(durable.RegisterSource(source.name));
    }
    for (size_t i = 0; i < corpus.snippets.size(); ++i) {
      Snippet copy = corpus.snippets[i];
      copy.id = kInvalidSnippetId;
      SP_CHECK_OK(durable.AddSnippet(std::move(copy)));
      if (i == corpus.snippets.size() / 2) {
        SP_CHECK_OK(durable.Checkpoint());
      }
    }
    // No Close(): the destructor path doubles as the crash simulation —
    // recovery may only rely on the checkpoint and the flushed WAL tail.
  }

  Result<std::unique_ptr<persist::DurableEngine>> recovered =
      persist::DurableEngine::Open(dir);
  SP_CHECK_OK(recovered.status());
  // Rebuild-on-recover: attaching constructs the index from the store.
  SearchEngine recovered_search(&recovered.value()->engine());

  EXPECT_EQ(live_search.index().num_documents(),
            recovered_search.index().num_documents());
  EXPECT_EQ(live_search.index().num_postings(),
            recovered_search.index().num_postings());
  EXPECT_EQ(live_search.index().total_length(),
            recovered_search.index().total_length());

  const text::Vocabulary& entities =
      std::as_const(*live).entity_vocabulary();
  for (text::TermId id = 0; id < entities.size(); id += 5) {
    std::string query = entities.TermOf(id) + " emergency response";
    EXPECT_EQ(live_search.Search(query), recovered_search.Search(query))
        << "query " << query;
  }
  ExpectIndexMatchesScan(recovered.value()->engine(), recovered_search);
  SP_CHECK_OK(recovered.value()->Close());
}

// ------------------ Case-folded lookups vs the scan oracle ------------------

// Reference implementations: linear scans over every vocabulary term and
// over the sorted event types. They define what the O(1) case-folded
// lookups in ParseQuery and CanonicalizeEntityQuery must reproduce.

/// Lowest id whose lower-cased form equals `lowered`.
text::TermId ScanIgnoringCase(const text::Vocabulary& vocabulary,
                              const std::string& lowered) {
  for (text::TermId id = 0; id < vocabulary.size(); ++id) {
    if (ToLower(vocabulary.TermOf(id)) == lowered) return id;
  }
  return text::kInvalidTermId;
}

/// CanonicalizeEntityQuery with the scan as its last step.
text::TermId OracleCanonicalizeEntityQuery(const text::Gazetteer& gazetteer,
                                           const text::Vocabulary& vocabulary,
                                           std::string_view query) {
  text::TermId exact = vocabulary.Lookup(query);
  if (exact != text::kInvalidTermId) return exact;
  std::vector<text::Token> tokens = text::Tokenize(query);
  if (tokens.empty()) return text::kInvalidTermId;
  std::vector<text::EntityMention> mentions = gazetteer.FindMentions(tokens);
  if (!mentions.empty()) {
    const text::EntityMention* best = &mentions.front();
    for (const text::EntityMention& mention : mentions) {
      if (mention.token_end - mention.token_begin >
          best->token_end - best->token_begin) {
        best = &mention;
      }
    }
    return best->entity;
  }
  return ScanIgnoringCase(vocabulary, ToLower(query));
}

/// ParseQuery with the entity scan and the sorted event-type scan.
ParsedQuery OracleParseQuery(const text::Gazetteer& gazetteer,
                             const text::Vocabulary& entities,
                             const text::Vocabulary& keywords,
                             const search::PostingsIndex& index,
                             std::string_view query) {
  using search::Field;
  using search::QueryTerm;
  ParsedQuery out;
  std::vector<text::Token> tokens = text::Tokenize(query);
  auto add_term = [&out](QueryTerm term) {
    for (const QueryTerm& existing : out.terms) {
      if (existing.field != term.field) continue;
      if (term.field == Field::kEventType
              ? existing.event_type == term.event_type
              : existing.term == term.term) {
        return;
      }
    }
    out.terms.push_back(std::move(term));
  };
  std::vector<bool> consumed(tokens.size(), false);
  for (const text::EntityMention& mention : gazetteer.FindMentions(tokens)) {
    QueryTerm term;
    term.field = Field::kEntity;
    term.term = mention.entity;
    for (size_t i = mention.token_begin; i < mention.token_end; ++i) {
      if (!term.surface.empty()) term.surface += ' ';
      term.surface += tokens[i].text;
      consumed[i] = true;
    }
    add_term(std::move(term));
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (consumed[i]) continue;
    const std::string& word = tokens[i].text;
    text::TermId entity = entities.Lookup(word);
    if (entity == text::kInvalidTermId) {
      entity = ScanIgnoringCase(entities, word);
    }
    if (entity != text::kInvalidTermId) {
      add_term({Field::kEntity, entity, {}, word});
      continue;
    }
    if (text::IsStopword(word)) continue;
    text::TermId keyword = keywords.Lookup(word);
    if (keyword == text::kInvalidTermId) {
      keyword = keywords.Lookup(text::PorterStem(word));
    }
    if (keyword != text::kInvalidTermId) {
      add_term({Field::kKeyword, keyword, {}, word});
      continue;
    }
    std::string event_type;
    if (index.EventTypePostings(word) != nullptr) {
      event_type = word;
    } else {
      for (const auto& [type, df] : index.EventTypes()) {
        if (ToLower(type) == word) {
          event_type = type;
          break;
        }
      }
    }
    if (!event_type.empty()) {
      add_term({Field::kEventType, text::kInvalidTermId,
                std::move(event_type), word});
      continue;
    }
    out.unmatched.push_back(word);
  }
  return out;
}

/// Every field of a parse, so two parses compare with one EXPECT_EQ.
std::string Describe(const ParsedQuery& parsed) {
  std::string out;
  for (const search::QueryTerm& term : parsed.terms) {
    out += StrFormat("[%d %u %s '%s'] ", static_cast<int>(term.field),
                     term.term, term.event_type.c_str(),
                     term.surface.c_str());
  }
  out += "unmatched:";
  for (const std::string& word : parsed.unmatched) out += " " + word;
  return out;
}

/// `text` in lower, UPPER, Title and aLtErNaTiNg case.
std::vector<std::string> CaseVariants(const std::string& text) {
  std::string upper = text;
  std::string title = ToLower(text);
  std::string alternating = text;
  for (size_t i = 0; i < text.size(); ++i) {
    auto byte = static_cast<unsigned char>(text[i]);
    upper[i] = static_cast<char>(std::toupper(byte));
    if (i == 0 || text[i - 1] == ' ') title[i] = upper[i];
    alternating[i] = static_cast<char>(i % 2 == 0 ? std::tolower(byte)
                                                  : std::toupper(byte));
  }
  return {ToLower(text), upper, title, alternating};
}

TEST(QueryCaseFolding, GdeltEntityVocabularyResolvesLikeTheScan) {
  datagen::CorpusConfig config = datagen::GdeltScalePreset();
  config.target_num_snippets = 600;  // The 500-entity vocabulary matters.
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  std::unique_ptr<StoryPivotEngine> engine = BuildFromCorpus(corpus);
  const StoryPivotEngine& live = *engine;
  SearchEngine searcher(engine.get());
  std::unique_ptr<serve::ReadSnapshot> snapshot =
      serve::ReadSnapshot::Capture(live, searcher.index());
  StoryQuery stories(engine.get());

  const text::Vocabulary& entities = live.entity_vocabulary();
  ASSERT_EQ(entities.size(), 500u);
  size_t found = 0;
  for (text::TermId id = 0; id < entities.size(); ++id) {
    const std::string& name = entities.TermOf(id);
    EXPECT_EQ(entities.LookupIgnoringCase(ToLower(name)),
              ScanIgnoringCase(entities, ToLower(name)))
        << name;
    for (const std::string& variant : CaseVariants(name)) {
      const ParsedQuery oracle =
          OracleParseQuery(live.gazetteer(), entities,
                           live.keyword_vocabulary(), searcher.index(),
                           variant);
      EXPECT_EQ(Describe(searcher.Parse(variant)), Describe(oracle))
          << variant;
      EXPECT_EQ(Describe(snapshot->Parse(variant)), Describe(oracle))
          << variant;
      const text::TermId canonical =
          OracleCanonicalizeEntityQuery(live.gazetteer(), entities, variant);
      EXPECT_EQ(text::CanonicalizeEntityQuery(live.gazetteer(), entities,
                                              variant),
                canonical)
          << variant;
      std::vector<StoryId> want;
      if (canonical != text::kInvalidTermId) {
        want = IdsOf(stories.FindByEntity(entities.TermOf(canonical)));
      }
      EXPECT_EQ(IdsOf(stories.FindByEntity(variant)), want) << variant;
      if (!want.empty()) ++found;
    }
  }
  EXPECT_GT(found, 0u);
}

/// `text` in a random one of lower, UPPER, Title case or per-byte noise.
std::string MixCase(const std::string& text, Pcg32& rng) {
  const uint32_t style = rng.NextBounded(5);
  if (style < 3) return CaseVariants(text)[style];
  std::string out = text;
  for (char& c : out) {
    auto byte = static_cast<unsigned char>(c);
    c = static_cast<char>(rng.NextBounded(2) == 0 ? std::tolower(byte)
                                                  : std::toupper(byte));
  }
  return out;
}

TEST(QueryCaseFoldingProperty, ParsesAndHitsMatchTheScanOracle) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    datagen::CorpusConfig config;
    config.seed = seed;
    config.target_num_snippets = 150;
    config.num_sources = 4;
    config.num_stories = 12;
    config.num_entities = 60;
    datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
    std::unique_ptr<StoryPivotEngine> engine = BuildFromCorpus(corpus);
    Pcg32 rng(seed, /*stream=*/5);

    // Fold collisions the corpus lacks: case variants of entity names
    // interned after them (no postings), and snippets re-posted under
    // case variants of their event type.
    text::Vocabulary& entity_vocab = *engine->entity_vocabulary();
    const auto corpus_entities = static_cast<uint32_t>(entity_vocab.size());
    for (int i = 0; i < 8; ++i) {
      entity_vocab.Intern(
          MixCase(entity_vocab.TermOf(rng.NextBounded(corpus_entities)), rng));
    }
    for (int i = 0; i < 6; ++i) {
      Snippet copy = corpus.snippets[rng.NextBounded(
          static_cast<uint32_t>(corpus.snippets.size()))];
      copy.id = kInvalidSnippetId;
      copy.event_type = MixCase(copy.event_type, rng);
      SP_CHECK_OK(engine->AddSnippet(std::move(copy)));
    }
    const StoryPivotEngine& live = *engine;
    SearchEngine searcher(engine.get());
    std::unique_ptr<serve::ReadSnapshot> snapshot =
        serve::ReadSnapshot::Capture(live, searcher.index());

    std::vector<std::string> words = {"the", "us", "zzznope"};
    for (text::TermId id = 0; id < entity_vocab.size(); ++id) {
      words.push_back(entity_vocab.TermOf(id));
    }
    const text::Vocabulary& keywords = live.keyword_vocabulary();
    for (text::TermId id = 0; id < keywords.size(); id += 3) {
      words.push_back(keywords.TermOf(id));
    }
    for (const auto& [type, df] : searcher.index().EventTypes()) {
      words.push_back(type);
    }

    for (int q = 0; q < 60; ++q) {
      std::string query;
      for (uint32_t n = 1 + rng.NextBounded(4); n > 0; --n) {
        query += MixCase(
            words[rng.NextBounded(static_cast<uint32_t>(words.size()))],
            rng);
        query += ' ';
      }
      const ParsedQuery oracle =
          OracleParseQuery(live.gazetteer(), entity_vocab, keywords,
                           searcher.index(), query);
      const ParsedQuery parsed = searcher.Parse(query);
      const ParsedQuery frozen = snapshot->Parse(query);
      EXPECT_EQ(Describe(parsed), Describe(oracle)) << query;
      EXPECT_EQ(Describe(frozen), Describe(oracle)) << query;

      SearchOptions options;
      options.mode = q % 2 == 0 ? search::MatchMode::kAny
                                : search::MatchMode::kAll;
      const std::vector<StoryHit> want = searcher.Search(oracle, options);
      EXPECT_EQ(searcher.Search(parsed, options), want) << query;
      EXPECT_EQ(snapshot->Search(frozen, options), want) << query;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "case folding diverged from the scan at seed " << seed;
    }
  }
}

}  // namespace
}  // namespace storypivot
