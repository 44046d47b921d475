#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "search/postings_index.h"
#include "search/query_pipeline.h"
#include "search/ranker.h"
#include "search/search_engine.h"
#include "text/query_canonicalize.h"
#include "util/logging.h"
#include "util/rng.h"

namespace storypivot {
namespace {

using search::Field;
using search::MatchMode;
using search::ParsedQuery;
using search::PostingsIndex;
using search::Posting;
using search::QueryTerm;
using search::RankStoriesScan;
using search::SearchEngine;
using search::SearchOptions;
using search::StoryHit;

Snippet MakeSnippet(SnippetId id, SourceId source, Timestamp ts,
                    std::vector<text::TermVector::Entry> entities,
                    std::vector<text::TermVector::Entry> keywords,
                    std::string event_type = {}) {
  Snippet snippet;
  snippet.id = id;
  snippet.source = source;
  snippet.timestamp = ts;
  snippet.entities = text::TermVector::FromEntries(std::move(entities));
  snippet.keywords = text::TermVector::FromEntries(std::move(keywords));
  snippet.event_type = std::move(event_type);
  return snippet;
}

// ----------------------------- PostingsIndex -------------------------------

TEST(PostingsIndexTest, PostsAndUnpostsAllFields) {
  PostingsIndex index;
  index.AddSnippet(MakeSnippet(7, 0, 100, {{1, 2.0}, {4, 1.0}}, {{9, 3.0}},
                               "Accident"));
  index.AddSnippet(MakeSnippet(3, 1, 50, {{1, 1.0}}, {}, "Accident"));

  EXPECT_EQ(index.num_documents(), 2u);
  EXPECT_EQ(index.DocumentFrequency(Field::kEntity, 1), 2u);
  EXPECT_EQ(index.DocumentFrequency(Field::kEntity, 4), 1u);
  EXPECT_EQ(index.DocumentFrequency(Field::kKeyword, 9), 1u);
  EXPECT_EQ(index.EventTypeFrequency("Accident"), 2u);
  EXPECT_EQ(index.EventTypeFrequency("Conflict"), 0u);
  EXPECT_DOUBLE_EQ(index.total_length(), 2.0 + 1.0 + 3.0 + 1.0);

  // Postings are sorted by snippet id even with out-of-order adds.
  const std::vector<Posting>* postings = index.Postings(Field::kEntity, 1);
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 2u);
  EXPECT_EQ((*postings)[0].snippet, 3u);
  EXPECT_EQ((*postings)[1].snippet, 7u);
  EXPECT_DOUBLE_EQ((*postings)[1].tf, 2.0);

  index.RemoveSnippet(MakeSnippet(7, 0, 100, {{1, 2.0}, {4, 1.0}},
                                  {{9, 3.0}}, "Accident"));
  EXPECT_EQ(index.num_documents(), 1u);
  EXPECT_EQ(index.DocumentFrequency(Field::kEntity, 1), 1u);
  EXPECT_EQ(index.Postings(Field::kEntity, 4), nullptr);
  EXPECT_EQ(index.Postings(Field::kKeyword, 9), nullptr);
  EXPECT_EQ(index.EventTypeFrequency("Accident"), 1u);

  index.RemoveSnippet(MakeSnippet(3, 1, 50, {{1, 1.0}}, {}, "Accident"));
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_EQ(index.num_postings(), 0u);
  EXPECT_DOUBLE_EQ(index.total_length(), 0.0);
  EXPECT_TRUE(index.EventTypes().empty());
}

TEST(PostingsIndexTest, EventTypesEnumerateLexicographically) {
  PostingsIndex index;
  index.AddSnippet(MakeSnippet(1, 0, 10, {}, {{0, 1.0}}, "Protest"));
  index.AddSnippet(MakeSnippet(2, 0, 20, {}, {{0, 1.0}}, "Accident"));
  index.AddSnippet(MakeSnippet(3, 0, 30, {}, {{0, 1.0}}, "Protest"));
  std::vector<std::pair<std::string, size_t>> types = index.EventTypes();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0].first, "Accident");
  EXPECT_EQ(types[0].second, 1u);
  EXPECT_EQ(types[1].first, "Protest");
  EXPECT_EQ(types[1].second, 2u);
}

// ------------------------------ BM25 ranking -------------------------------

/// Tiny fixed engine: one source, two far-apart stories with known
/// content, so BM25 scores can be checked against hand arithmetic.
class TinyRankFixture : public ::testing::Test {
 protected:
  TinyRankFixture() {
    engine_ = std::make_unique<StoryPivotEngine>();
    SourceId source = engine_->RegisterSource("wire");
    // Two snippets close in time -> one story; a third far away -> its
    // own story (default temporal window is 7 days).
    const Timestamp t0 = MakeTimestamp(2014, 7, 17);
    SP_CHECK_OK(engine_->AddSnippet(MakeSnippet(
        kInvalidSnippetId, source, t0, {{0, 2.0}}, {{0, 1.0}}, "Accident")));
    SP_CHECK_OK(engine_->AddSnippet(MakeSnippet(
        kInvalidSnippetId, source, t0 + kSecondsPerDay, {{0, 1.0}, {1, 1.0}},
        {{0, 1.0}}, "Accident")));
    SP_CHECK_OK(engine_->AddSnippet(MakeSnippet(
        kInvalidSnippetId, source, t0 + 300 * kSecondsPerDay, {{1, 4.0}},
        {{0, 2.0}}, "Protest")));
    searcher_ = std::make_unique<SearchEngine>(engine_.get());
    SP_CHECK(engine_->TotalStories() == 2);
  }

  static ParsedQuery EntityQuery(text::TermId term) {
    ParsedQuery query;
    query.terms.push_back({Field::kEntity, term, {}, "e"});
    return query;
  }

  std::unique_ptr<StoryPivotEngine> engine_;
  std::unique_ptr<SearchEngine> searcher_;
};

TEST_F(TinyRankFixture, ScoresMatchHandComputedBm25) {
  // Entity 0 occurs in both snippets of story A (tf 2+1=3) and nowhere
  // else: df=2 of N=3 snippets; story A has dl = entities (2+1+1) +
  // keywords (1+1) = 6, story B dl = 4+2 = 6, avgdl = 6.
  std::vector<StoryHit> hits = searcher_->Search(EntityQuery(0));
  ASSERT_EQ(hits.size(), 1u);
  const double idf = std::log(1.0 + (3 - 2 + 0.5) / (2 + 0.5));
  const double k1 = 1.2, b = 0.75;
  const double norm = k1 * (1.0 - b + b * (6.0 / 6.0));
  const double expected = idf * (3.0 * (k1 + 1.0)) / (3.0 + norm);
  EXPECT_DOUBLE_EQ(hits[0].score, expected);
  EXPECT_EQ(hits[0].matched_terms, 1u);
}

TEST_F(TinyRankFixture, ConjunctiveRequiresEveryTerm) {
  // Entity 1 is in both stories; keyword 0 too; but entity 0 only in
  // story A. kAll over {entity 0, entity 1} must keep story A only.
  ParsedQuery query;
  query.terms.push_back({Field::kEntity, 0, {}, "e0"});
  query.terms.push_back({Field::kEntity, 1, {}, "e1"});
  SearchOptions options;
  options.mode = MatchMode::kAll;
  std::vector<StoryHit> conjunctive = searcher_->Search(query, options);
  ASSERT_EQ(conjunctive.size(), 1u);
  EXPECT_EQ(conjunctive[0].matched_terms, 2u);

  std::vector<StoryHit> disjunctive = searcher_->Search(query);
  EXPECT_EQ(disjunctive.size(), 2u);

  // A term matching nothing empties a conjunctive query entirely.
  query.terms.push_back({Field::kEntity, 99, {}, "none"});
  EXPECT_TRUE(searcher_->Search(query, options).empty());
  EXPECT_EQ(searcher_->Search(query).size(), 2u);
}

TEST_F(TinyRankFixture, TimeFilterLimitsContributingSnippets) {
  // Restrict to the first story's window: the far-future snippet can no
  // longer contribute, so a query on entity 1 sees only story A's tf=1.
  SearchOptions options;
  options.filter_time = true;
  options.from = MakeTimestamp(2014, 7, 1);
  options.to = MakeTimestamp(2014, 8, 1);
  std::vector<StoryHit> hits = searcher_->Search(EntityQuery(1), options);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], RankStoriesScan(*engine_, EntityQuery(1), options)[0]);

  // An empty window matches nothing.
  options.from = MakeTimestamp(2013, 1, 1);
  options.to = MakeTimestamp(2013, 2, 1);
  EXPECT_TRUE(searcher_->Search(EntityQuery(1), options).empty());
}

TEST_F(TinyRankFixture, TimeWindowBoundsAreInclusiveAtBothEnds) {
  // from == to pinned exactly on a snippet's timestamp must match it
  // (the [from, to] filter is inclusive at both ends), and moving
  // either bound off by one second must drop it.
  const Timestamp t0 = MakeTimestamp(2014, 7, 17);
  SearchOptions options;
  options.filter_time = true;
  options.from = t0;
  options.to = t0;
  ASSERT_TRUE(search::ValidateSearchOptions(options).ok());
  std::vector<StoryHit> exact = searcher_->Search(EntityQuery(0), options);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0], RankStoriesScan(*engine_, EntityQuery(0), options)[0]);

  // Window ending one second before the snippet: empty (both paths).
  options.from = t0 - kSecondsPerDay;
  options.to = t0 - 1;
  EXPECT_TRUE(searcher_->Search(EntityQuery(0), options).empty());
  EXPECT_TRUE(RankStoriesScan(*engine_, EntityQuery(0), options).empty());

  // Window starting one second after it: misses it too (only the
  // second snippet of story A, a day later, is left for entity 0).
  options.from = t0 + 1;
  options.to = t0 + kSecondsPerDay;
  std::vector<StoryHit> after = searcher_->Search(EntityQuery(0), options);
  ASSERT_EQ(after.size(), 1u);
  // tf drops from 3.0 (both snippets) to 1.0 (second snippet only), so
  // the score must differ from the exact-hit window's.
  EXPECT_NE(after[0].score, exact[0].score);
  EXPECT_EQ(after[0], RankStoriesScan(*engine_, EntityQuery(0), options)[0]);
}

TEST(SearchOptionsValidationTest, InvertedWindowIsATypedErrorNotEmpty) {
  SearchOptions options;
  options.filter_time = true;
  options.from = MakeTimestamp(2014, 8, 1);
  options.to = MakeTimestamp(2014, 7, 1);
  Status status = search::ValidateSearchOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The message names both bounds so the caller can see the inversion.
  EXPECT_NE(std::string(status.message()).find("inverted"),
            std::string::npos);

  // from == to is a legal one-instant window, not an inversion.
  options.to = options.from;
  EXPECT_TRUE(search::ValidateSearchOptions(options).ok());

  // Without filter_time the bounds are inert and never validated.
  options.filter_time = false;
  options.from = 10;
  options.to = 5;
  EXPECT_TRUE(search::ValidateSearchOptions(options).ok());
}

TEST_F(TinyRankFixture, KBoundsTheResultList) {
  ParsedQuery query;
  query.terms.push_back({Field::kEntity, 1, {}, "e1"});
  SearchOptions options;
  options.k = 1;
  std::vector<StoryHit> top1 = searcher_->Search(query, options);
  ASSERT_EQ(top1.size(), 1u);
  std::vector<StoryHit> top10 = searcher_->Search(query);
  ASSERT_EQ(top10.size(), 2u);
  EXPECT_EQ(top1[0], top10[0]);
  EXPECT_GE(top10[0].score, top10[1].score);
}

// -------------------- Pruned == exhaustive (property) ----------------------

TEST(RankEquivalenceProperty, PrunedMatchesScanAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    datagen::CorpusConfig config;
    config.seed = seed;
    config.target_num_snippets = 200;
    config.num_sources = 4;
    config.num_stories = 15;
    config.num_entities = 50;
    datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
    StoryPivotEngine engine;
    SP_CHECK_OK(engine.ImportVocabularies(*corpus.entity_vocabulary,
                                          *corpus.keyword_vocabulary));
    for (const SourceInfo& source : corpus.sources) {
      engine.RegisterSource(source.name);
    }
    for (const Snippet& snippet : corpus.snippets) {
      Snippet copy = snippet;
      copy.id = kInvalidSnippetId;
      SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
    }
    SearchEngine searcher(&engine);

    // Random multi-term queries over the live vocabularies, random k,
    // both modes, and occasional time windows.
    Pcg32 rng(seed * 977 + 13);
    for (int q = 0; q < 15; ++q) {
      ParsedQuery query;
      const size_t num_terms = 1 + rng.NextBounded(4);
      for (size_t t = 0; t < num_terms; ++t) {
        if (rng.NextBounded(3) == 0) {
          query.terms.push_back(
              {Field::kEntity,
               static_cast<text::TermId>(rng.NextBounded(
                   static_cast<uint32_t>(engine.entity_vocabulary()->size()))),
               {},
               "e"});
        } else {
          query.terms.push_back(
              {Field::kKeyword,
               static_cast<text::TermId>(rng.NextBounded(static_cast<uint32_t>(
                   engine.keyword_vocabulary()->size()))),
               {},
               "k"});
        }
      }
      SearchOptions options;
      options.k = 1 + rng.NextBounded(8);
      options.mode =
          rng.NextBounded(2) == 0 ? MatchMode::kAny : MatchMode::kAll;
      if (rng.NextBounded(3) == 0) {
        options.filter_time = true;
        options.from = MakeTimestamp(2014, 6, 1) +
                       static_cast<Timestamp>(rng.NextBounded(120)) *
                           kSecondsPerDay;
        options.to = options.from +
                     static_cast<Timestamp>(1 + rng.NextBounded(60)) *
                         kSecondsPerDay;
      }
      std::vector<StoryHit> indexed = searcher.Search(query, options);
      std::vector<StoryHit> scanned = RankStoriesScan(engine, query, options);
      ASSERT_EQ(indexed.size(), scanned.size())
          << "seed " << seed << " query " << q;
      for (size_t i = 0; i < indexed.size(); ++i) {
        EXPECT_EQ(indexed[i], scanned[i])
            << "seed " << seed << " query " << q << " hit " << i;
      }
    }
  }
}

// ------------------------------- ParseQuery --------------------------------

class ParseFixture : public ::testing::Test {
 protected:
  ParseFixture() {
    engine_ = std::make_unique<StoryPivotEngine>();
    SourceId source = engine_->RegisterSource("wire");
    text::TermId ukraine = engine_->gazetteer()->AddEntity("Ukraine");
    engine_->gazetteer()->AddAlias(ukraine, "Kiev government");
    text::TermId crash = engine_->keyword_vocabulary()->Intern("crash");
    SP_CHECK_OK(engine_->AddSnippet(MakeSnippet(
        kInvalidSnippetId, source, MakeTimestamp(2014, 7, 17),
        {{ukraine, 1.0}}, {{crash, 2.0}}, "Accident")));
    searcher_ = std::make_unique<SearchEngine>(engine_.get());
  }

  std::unique_ptr<StoryPivotEngine> engine_;
  std::unique_ptr<SearchEngine> searcher_;
};

TEST_F(ParseFixture, ResolvesEveryFieldAndReportsUnmatched) {
  ParsedQuery parsed =
      searcher_->Parse("Ukraine crashed the accident zzznope");
  ASSERT_EQ(parsed.terms.size(), 3u);
  EXPECT_EQ(parsed.terms[0].field, Field::kEntity);
  EXPECT_EQ(parsed.terms[0].term,
            engine_->entity_vocabulary()->Lookup("Ukraine"));
  // "crashed" stems to the interned "crash".
  EXPECT_EQ(parsed.terms[1].field, Field::kKeyword);
  EXPECT_EQ(parsed.terms[1].term,
            engine_->keyword_vocabulary()->Lookup("crash"));
  // "accident" case-insensitively matches the indexed event type; "the"
  // is a stopword and vanishes silently.
  EXPECT_EQ(parsed.terms[2].field, Field::kEventType);
  EXPECT_EQ(parsed.terms[2].event_type, "Accident");
  ASSERT_EQ(parsed.unmatched.size(), 1u);
  EXPECT_EQ(parsed.unmatched[0], "zzznope");
}

TEST_F(ParseFixture, MultiTokenAliasResolvesThroughGazetteer) {
  ParsedQuery parsed = searcher_->Parse("kiev government crash");
  ASSERT_EQ(parsed.terms.size(), 2u);
  EXPECT_EQ(parsed.terms[0].field, Field::kEntity);
  EXPECT_EQ(parsed.terms[0].term,
            engine_->entity_vocabulary()->Lookup("Ukraine"));
  EXPECT_EQ(parsed.terms[1].field, Field::kKeyword);
  EXPECT_TRUE(parsed.unmatched.empty());
}

TEST_F(ParseFixture, DuplicateResolutionsCollapse) {
  ParsedQuery parsed = searcher_->Parse("crash crashes crashing");
  EXPECT_EQ(parsed.terms.size(), 1u);
}

TEST(ParseCaseFolding, ExactMatchWinsInParseLowestFoldInCanonicalize) {
  // Case variants interned out of order: "US" at id 2, "us" at id 7.
  text::Vocabulary entities;
  for (const char* name : {"Ukraine", "Russia", "US", "Kiev", "NATO",
                           "Malaysia Airlines", "EU", "us"}) {
    entities.Intern(name);
  }
  ASSERT_EQ(entities.Lookup("US"), 2u);
  ASSERT_EQ(entities.Lookup("us"), 7u);
  text::Vocabulary keywords;
  text::Gazetteer gazetteer(&entities);
  PostingsIndex index;
  auto entity_of = [&](std::string_view query) {
    ParsedQuery parsed =
        search::ParseQuery(gazetteer, entities, keywords, index, query);
    SP_CHECK(parsed.terms.size() == 1);
    SP_CHECK(parsed.terms[0].field == Field::kEntity);
    return parsed.terms[0].term;
  };

  // ParseQuery: the token "us" matches id 7 exactly, which beats the
  // lower fold at id 2; a token with no exact match takes its fold.
  EXPECT_EQ(entity_of("us"), 7u);
  EXPECT_EQ(entity_of("US"), 7u);  // Tokenized to "us".
  EXPECT_EQ(entity_of("kIEV"), 3u);
  EXPECT_EQ(entity_of("nato"), 4u);

  // CanonicalizeEntityQuery: the lowest id among every term that folds
  // to the lower-cased query, the lower-case term included.
  EXPECT_EQ(text::CanonicalizeEntityQuery(gazetteer, entities, "uS"), 2u);
  EXPECT_EQ(text::CanonicalizeEntityQuery(gazetteer, entities, "us"), 7u);
  EXPECT_EQ(text::CanonicalizeEntityQuery(gazetteer, entities, "kiev"), 3u);
  EXPECT_EQ(text::CanonicalizeEntityQuery(gazetteer, entities, "Minsk"),
            text::kInvalidTermId);
}

TEST(ParseCaseFolding, EventTypeFoldsToTheSmallestPostedType) {
  text::Vocabulary entities;
  text::Vocabulary keywords;
  text::Gazetteer gazetteer(&entities);
  PostingsIndex index;
  auto type_of = [&](std::string_view query) -> std::string {
    ParsedQuery parsed =
        search::ParseQuery(gazetteer, entities, keywords, index, query);
    return parsed.terms.empty() ? "<none>" : parsed.terms[0].event_type;
  };
  const Snippet protest = MakeSnippet(1, 0, 10, {}, {}, "Protest");
  const Snippet shout_a = MakeSnippet(2, 0, 20, {}, {}, "PROTEST");
  const Snippet shout_b = MakeSnippet(3, 0, 30, {}, {}, "PROTEST");
  index.AddSnippet(protest);
  index.AddSnippet(shout_a);
  index.AddSnippet(shout_b);
  // ASCII upper case sorts first: "PROTEST" < "Protest".
  EXPECT_EQ(type_of("protest"), "PROTEST");
  index.RemoveSnippet(shout_a);
  EXPECT_EQ(type_of("protest"), "PROTEST");  // One snippet still posts it.
  index.RemoveSnippet(shout_b);
  EXPECT_EQ(type_of("protest"), "Protest");

  // More variants: the smallest posted fold wins at every step.
  const Snippet mixed = MakeSnippet(4, 0, 40, {}, {}, "ProTest");
  const Snippet inverted = MakeSnippet(5, 0, 50, {}, {}, "pROTEST");
  const Snippet tail = MakeSnippet(6, 0, 60, {}, {}, "PROTESt");
  for (const Snippet* snippet : {&inverted, &mixed, &tail, &shout_a}) {
    index.AddSnippet(*snippet);
  }
  EXPECT_EQ(type_of("PROTEST"), "PROTEST");
  index.RemoveSnippet(shout_a);
  EXPECT_EQ(type_of("protest"), "PROTESt");
  index.RemoveSnippet(tail);
  EXPECT_EQ(type_of("protest"), "ProTest");
  index.RemoveSnippet(mixed);
  EXPECT_EQ(type_of("protest"), "Protest");
  index.RemoveSnippet(protest);
  EXPECT_EQ(type_of("protest"), "pROTEST");

  // An exact posting wins although "PROTEST" sorts before it.
  const Snippet exact = MakeSnippet(7, 0, 70, {}, {}, "protest");
  index.AddSnippet(exact);
  index.AddSnippet(shout_a);
  EXPECT_EQ(type_of("protest"), "protest");

  // A type whose last snippet is removed stops matching.
  for (const Snippet* snippet : {&exact, &shout_a, &inverted}) {
    index.RemoveSnippet(*snippet);
  }
  EXPECT_EQ(type_of("protest"), "<none>");
  EXPECT_EQ(index.EventTypeIgnoringCase("protest"), nullptr);
}

// -------------------- Incremental maintenance vs rebuild -------------------

TEST(SearchMaintenance, ObserverMatchesFreshRebuildAfterRemovals) {
  datagen::CorpusConfig config;
  config.target_num_snippets = 250;
  config.num_sources = 4;
  config.num_stories = 12;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  StoryPivotEngine engine;
  SP_CHECK_OK(engine.ImportVocabularies(*corpus.entity_vocabulary,
                                        *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    engine.RegisterSource(source.name);
  }
  // Attach BEFORE ingest: every posting arrives via observer callbacks.
  SearchEngine live(&engine);
  for (const Snippet& snippet : corpus.snippets) {
    Snippet copy = snippet;
    copy.id = kInvalidSnippetId;
    SP_CHECK_OK(engine.AddSnippet(std::move(copy)));
  }
  SP_CHECK_OK(engine.RemoveSource(corpus.sources[1].id));

  // A second index built from scratch off the post-removal store must be
  // indistinguishable (pure function of the live snippet set).
  search::PostingsIndex rebuilt;
  engine.store().ForEach(
      [&](const Snippet& snippet) { rebuilt.AddSnippet(snippet); });

  EXPECT_EQ(live.index().num_documents(), rebuilt.num_documents());
  EXPECT_EQ(live.index().num_postings(), rebuilt.num_postings());
  EXPECT_DOUBLE_EQ(live.index().total_length(), rebuilt.total_length());
  EXPECT_EQ(live.index().EventTypes(), rebuilt.EventTypes());
  for (text::TermId id = 0; id < engine.entity_vocabulary()->size(); ++id) {
    EXPECT_EQ(live.index().DocumentFrequency(Field::kEntity, id),
              rebuilt.DocumentFrequency(Field::kEntity, id));
  }
}

}  // namespace
}  // namespace storypivot
