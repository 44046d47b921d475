// Serving-tier tests (DESIGN.md §14): snapshot capture fidelity, epoch
// publication/pinning/reclamation, the hot-query cache, admission
// control and deadlines, and the headline property — K concurrent
// readers pinned to an epoch see BYTE-IDENTICAL results no matter how
// hard the writer churns underneath them, and those results equal what
// the serial engine answered at the same acked prefix.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "search/ranker.h"
#include "search/search_engine.h"
#include "serve/epoch_manager.h"
#include "serve/query_cache.h"
#include "serve/read_snapshot.h"
#include "serve/server.h"
#include "serve/serving_engine.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/sync.h"

namespace storypivot {
namespace {

using search::Field;
using search::ParsedQuery;
using search::SearchOptions;
using search::StoryHit;
using serve::EpochManager;
using serve::QueryCache;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ReadSnapshot;
using serve::Server;
using serve::ServerOptions;
using serve::ServingEngine;

::testing::AssertionResult IsOk(const Status& status) {
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << status.ToString();
}
template <typename T>
::testing::AssertionResult IsOk(const Result<T>& result) {
  return IsOk(result.status());
}
#define ASSERT_OK(expr) ASSERT_TRUE(IsOk((expr)))

/// One-term queries, bypassing the parser.
ParsedQuery TermQuery(Field field, text::TermId term) {
  ParsedQuery query;
  query.terms.push_back({field, term, {}, {}});
  return query;
}

ParsedQuery EventTypeQuery(const std::string& event_type) {
  ParsedQuery query;
  query.terms.push_back(
      {Field::kEventType, text::kInvalidTermId, event_type, {}});
  return query;
}

/// Options whose k exceeds the story count, so a search returns every
/// matching story with its score rather than a top 10.
SearchOptions EveryStory(size_t total_stories) {
  SearchOptions options;
  options.k = total_stories + 1;
  return options;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/sp_serve_" + name;
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

Snippet MakeSnippet(SourceId source, Timestamp ts,
                    std::vector<text::TermVector::Entry> entities,
                    std::vector<text::TermVector::Entry> keywords,
                    std::string event_type = {}) {
  Snippet snippet;
  snippet.id = kInvalidSnippetId;
  snippet.source = source;
  snippet.timestamp = ts;
  snippet.entities = text::TermVector::FromEntries(std::move(entities));
  snippet.keywords = text::TermVector::FromEntries(std::move(keywords));
  snippet.event_type = std::move(event_type);
  return snippet;
}

/// A small deterministic engine with named text state, so free-text
/// queries exercise the gazetteer/stemming clone path too.
struct LiveStack {
  std::unique_ptr<StoryPivotEngine> engine;
  std::unique_ptr<search::SearchEngine> searcher;
};

LiveStack BuildStack() {
  LiveStack stack;
  stack.engine = std::make_unique<StoryPivotEngine>();
  StoryPivotEngine& engine = *stack.engine;
  SourceId wire = engine.RegisterSource("wire");
  SourceId blog = engine.RegisterSource("blog");
  text::TermId ukraine = engine.gazetteer()->AddEntity("Ukraine");
  engine.gazetteer()->AddAlias(ukraine, "Kiev government");
  text::TermId airline = engine.gazetteer()->AddEntity("Malaysia Airlines");
  text::TermId crash = engine.keyword_vocabulary()->Intern("crash");
  text::TermId probe = engine.keyword_vocabulary()->Intern("investig");
  const Timestamp t0 = MakeTimestamp(2014, 7, 17);
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(
      wire, t0, {{ukraine, 1.0}, {airline, 2.0}}, {{crash, 2.0}},
      "Accident")));
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(
      wire, t0 + kSecondsPerDay, {{ukraine, 2.0}}, {{probe, 1.0}},
      "Accident")));
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(
      blog, t0 + 2 * kSecondsPerDay, {{airline, 1.0}},
      {{crash, 1.0}, {probe, 1.0}}, "Protest")));
  SP_CHECK_OK(engine.AddSnippet(MakeSnippet(
      blog, t0 + 200 * kSecondsPerDay, {{ukraine, 1.0}}, {{crash, 1.0}},
      "Conflict")));
  stack.searcher = std::make_unique<search::SearchEngine>(&engine);
  return stack;
}

// ----------------------------- ReadSnapshot --------------------------------

TEST(ReadSnapshotTest, MatchesTheLiveEngineBitForBit) {
  LiveStack live = BuildStack();
  std::unique_ptr<ReadSnapshot> snapshot =
      ReadSnapshot::Capture(*live.engine, live.searcher->index());

  const char* queries[] = {"Ukraine crash", "kiev government investigated",
                           "Malaysia Airlines accident", "zzznope crash"};
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    ParsedQuery live_parsed = live.searcher->Parse(text);
    ParsedQuery snap_parsed = snapshot->Parse(text);
    // Identical canonicalization (same gazetteer, vocabularies, index)…
    ASSERT_EQ(live_parsed.terms.size(), snap_parsed.terms.size());
    for (size_t i = 0; i < live_parsed.terms.size(); ++i) {
      EXPECT_EQ(live_parsed.terms[i].field, snap_parsed.terms[i].field);
      EXPECT_EQ(live_parsed.terms[i].term, snap_parsed.terms[i].term);
      EXPECT_EQ(live_parsed.terms[i].event_type,
                snap_parsed.terms[i].event_type);
    }
    EXPECT_EQ(live_parsed.unmatched, snap_parsed.unmatched);
    // …and identical ranking, including against the index-free scan.
    for (auto mode : {search::MatchMode::kAny, search::MatchMode::kAll}) {
      SearchOptions options;
      options.mode = mode;
      EXPECT_EQ(snapshot->Search(snap_parsed, options),
                live.searcher->Search(live_parsed, options));
      EXPECT_EQ(snapshot->Search(snap_parsed, options),
                search::RankStoriesScan(*live.engine, live_parsed, options));
    }
  }

  // Single-term searches over every story agree too: same frozen story
  // membership, same scores.
  const SearchOptions all = EveryStory(live.engine->TotalStories());
  for (text::TermId term = 0; term < 2; ++term) {
    for (Field field : {Field::kEntity, Field::kKeyword}) {
      EXPECT_EQ(snapshot->Search(TermQuery(field, term), all),
                live.searcher->Search(TermQuery(field, term), all));
    }
  }
  EXPECT_EQ(snapshot->Search(EventTypeQuery("Accident"), all),
            live.searcher->Search(EventTypeQuery("Accident"), all));
  EXPECT_EQ(snapshot->total_stories(), live.engine->TotalStories());
}

TEST(ReadSnapshotTest, IsImmuneToWritesAfterCapture) {
  LiveStack live = BuildStack();
  std::unique_ptr<ReadSnapshot> snapshot =
      ReadSnapshot::Capture(*live.engine, live.searcher->index());
  ParsedQuery parsed = snapshot->Parse("Ukraine crash");
  std::vector<StoryHit> before = snapshot->Search(parsed);
  ASSERT_FALSE(before.empty());

  // Pile new content onto the live engine; the frozen view must not
  // move (the whole point of epoch pinning).
  text::TermId ukraine = live.engine->entity_vocabulary()->Lookup("Ukraine");
  for (int i = 0; i < 10; ++i) {
    SP_CHECK_OK(live.engine->AddSnippet(MakeSnippet(
        0, MakeTimestamp(2014, 7, 17) + i * kSecondsPerHour,
        {{ukraine, 3.0}}, {}, "Accident")));
  }
  EXPECT_EQ(snapshot->Search(parsed), before);
  EXPECT_EQ(snapshot->index().num_documents(), 4u);

  // A fresh capture sees the new state — and matches the live ranker.
  std::unique_ptr<ReadSnapshot> fresh =
      ReadSnapshot::Capture(*live.engine, live.searcher->index());
  EXPECT_EQ(fresh->index().num_documents(), 14u);
  EXPECT_EQ(fresh->Search(fresh->Parse("Ukraine crash")),
            live.searcher->Search(live.searcher->Parse("Ukraine crash")));
}

// ----------------------------- EpochManager --------------------------------

TEST(EpochManagerTest, PublishPinAndReclaim) {
  LiveStack live = BuildStack();
  EpochManager epochs;
  EXPECT_EQ(epochs.current_epoch(), 0u);
  EXPECT_EQ(epochs.Pin(), nullptr);

  uint64_t first = epochs.Publish(
      ReadSnapshot::Capture(*live.engine, live.searcher->index()));
  EXPECT_EQ(first, 1u);
  std::shared_ptr<const ReadSnapshot> pinned = epochs.Pin();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch(), 1u);

  // Publishing retires epoch 1, but the pin keeps it alive and intact.
  std::vector<StoryHit> at_one = pinned->Search(pinned->Parse("crash"));
  uint64_t second = epochs.Publish(
      ReadSnapshot::Capture(*live.engine, live.searcher->index()));
  EXPECT_EQ(second, 2u);
  EXPECT_EQ(epochs.current_epoch(), 2u);
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->Search(pinned->Parse("crash")), at_one);

  EpochManager::Stats stats = epochs.GetStats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.retired_live, 1u);  // Epoch 1, held by `pinned`.
  EXPECT_EQ(epochs.ReclaimExpired(), 0u);

  // Dropping the last pin drains epoch 1; the registry trims it.
  pinned.reset();
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  stats = epochs.GetStats();
  EXPECT_EQ(stats.retired_live, 0u);
  EXPECT_EQ(stats.reclaimed, 1u);
  EXPECT_EQ(stats.current_epoch, 2u);
}

// ------------------------------ QueryCache ---------------------------------

TEST(QueryCacheTest, KeyCanonicalizesTermOrderAndSeparatesEpochs) {
  ParsedQuery ab;
  ab.terms.push_back({Field::kEntity, 3, {}, "a"});
  ab.terms.push_back({Field::kKeyword, 7, {}, "b"});
  ParsedQuery ba;
  ba.terms.push_back({Field::kKeyword, 7, {}, "b"});
  ba.terms.push_back({Field::kEntity, 3, {}, "a"});
  SearchOptions options;
  EXPECT_EQ(QueryCache::Key(5, ab, options), QueryCache::Key(5, ba, options));
  EXPECT_NE(QueryCache::Key(5, ab, options), QueryCache::Key(6, ab, options));

  // Every ranking-relevant option lands in the key.
  SearchOptions other = options;
  other.k = 3;
  EXPECT_NE(QueryCache::Key(5, ab, options), QueryCache::Key(5, ab, other));
  other = options;
  other.mode = search::MatchMode::kAll;
  EXPECT_NE(QueryCache::Key(5, ab, options), QueryCache::Key(5, ab, other));
  other = options;
  other.filter_time = true;
  other.from = 1;
  other.to = 2;
  EXPECT_NE(QueryCache::Key(5, ab, options), QueryCache::Key(5, ab, other));
  SearchOptions later = other;
  later.to = 3;
  EXPECT_NE(QueryCache::Key(5, ab, other), QueryCache::Key(5, ab, later));
}

TEST(QueryCacheTest, LruEvictsOldestAndCountsStats) {
  QueryCache cache(2);
  std::vector<StoryHit> one{{0, 1, 1.0, 1}};
  std::vector<StoryHit> two{{0, 2, 2.0, 1}};
  std::vector<StoryHit> three{{0, 3, 3.0, 1}};
  std::vector<StoryHit> out;

  cache.Insert("a", 1, one);
  cache.Insert("b", 1, two);
  ASSERT_TRUE(cache.Lookup("a", &out));  // "a" becomes most recent.
  EXPECT_EQ(out, one);
  cache.Insert("c", 1, three);           // Evicts "b", the LRU entry.
  EXPECT_FALSE(cache.Lookup("b", &out));
  ASSERT_TRUE(cache.Lookup("a", &out));
  ASSERT_TRUE(cache.Lookup("c", &out));
  EXPECT_EQ(out, three);

  QueryCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evicted_by_capacity, 1u);
  EXPECT_EQ(stats.evicted_by_epoch, 0u);
  EXPECT_EQ(stats.size, 2u);

  // Capacity 0 disables caching entirely.
  QueryCache disabled(0);
  disabled.Insert("a", 1, one);
  EXPECT_FALSE(disabled.Lookup("a", &out));
}

// -------------------------------- Server -----------------------------------

TEST(ServerTest, RejectsInvalidOptionsAndMissingSnapshotAtAdmission) {
  EpochManager epochs;
  ServerOptions options;
  options.num_threads = 1;  // Inline: deterministic single-threaded path.
  Server server(&epochs, options);

  QueryRequest inverted;
  inverted.query = "crash";
  inverted.options.filter_time = true;
  inverted.options.from = 10;
  inverted.options.to = 5;
  Result<QueryResponse> response = server.Query(inverted);
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);

  QueryRequest plain;
  plain.query = "crash";
  response = server.Query(plain);
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);

  Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServerTest, ShedsLoadWithUnavailableWhenTheQueueIsFull) {
  LiveStack live = BuildStack();
  EpochManager epochs;
  epochs.Publish(
      ReadSnapshot::Capture(*live.engine, live.searcher->index()));

  ServerOptions options;
  options.num_threads = 2;
  options.max_queued = 1;
  Server server(&epochs, options);

  // Stall both workers on a latch; with the 1-slot queue then occupied,
  // the next admission MUST be shed with kUnavailable.
  // lockcheck: name=serve_test.Sheds.mu
  Mutex mu;
  CondVar cv;
  int stalled = 0;
  bool release = false;
  server.set_before_execute([&] {
    MutexLock lock(mu);
    ++stalled;
    cv.NotifyAll();
    while (!release) cv.Wait(mu);
  });

  QueryRequest request;
  request.query = "crash";
  std::vector<std::thread> callers;
  std::atomic<int> ok{0};
  // Stage the first two callers one at a time: each must be DEQUEUED
  // (stalling its worker, emptying the 1-slot queue) before the next
  // submits, or the next submission would race into a full queue.
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back([&] {
      Result<QueryResponse> response = server.Query(request);
      if (response.ok()) ++ok;
    });
    MutexLock lock(mu);
    while (stalled < i + 1) cv.Wait(mu);
  }
  // Both workers are stalled. Fill the single queue slot…
  callers.emplace_back([&] {
    Result<QueryResponse> response = server.Query(request);
    if (response.ok()) ++ok;
  });
  while (server.GetStats().admitted < 3) std::this_thread::yield();
  // …and the fourth query is rejected at admission, without blocking.
  Result<QueryResponse> shed = server.Query(request);
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  {
    MutexLock lock(mu);
    release = true;
    cv.NotifyAll();
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(ok.load(), 3);
  Server::Stats stats = server.GetStats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServerTest, ExpiredDeadlineFailsFastWithDeadlineExceeded) {
  LiveStack live = BuildStack();
  EpochManager epochs;
  epochs.Publish(
      ReadSnapshot::Capture(*live.engine, live.searcher->index()));

  ServerOptions options;
  options.num_threads = 1;  // Inline, so the stall deterministically
                            // burns THIS query's deadline.
  Server server(&epochs, options);
  server.set_before_execute(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });

  QueryRequest request;
  request.query = "crash";
  request.deadline_ms = 1;
  Result<QueryResponse> response = server.Query(request);
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.GetStats().deadline_exceeded, 1u);

  // Without a deadline the same stall is merely slow, not fatal.
  request.deadline_ms = 0;
  ASSERT_OK(server.Query(request));
}

TEST(ServerTest, CachesWithinAnEpochAndMissesAcrossEpochs) {
  LiveStack live = BuildStack();
  EpochManager epochs;
  epochs.Publish(
      ReadSnapshot::Capture(*live.engine, live.searcher->index()));

  ServerOptions options;
  options.num_threads = 1;
  Server server(&epochs, options);
  QueryRequest request;
  request.query = "Ukraine crash zzznope";

  Result<QueryResponse> first = server.Query(request);
  ASSERT_OK(first);
  EXPECT_FALSE(first.value().from_cache);
  EXPECT_EQ(first.value().epoch, 1u);
  ASSERT_EQ(first.value().unmatched.size(), 1u);

  Result<QueryResponse> second = server.Query(request);
  ASSERT_OK(second);
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().hits, first.value().hits);
  // Unmatched diagnostics come from the fresh parse even on a hit.
  EXPECT_EQ(second.value().unmatched, first.value().unmatched);

  // Surface variants that canonicalize identically share the entry.
  QueryRequest variant;
  variant.query = "crash Ukraine zzznope";
  Result<QueryResponse> third = server.Query(variant);
  ASSERT_OK(third);
  EXPECT_TRUE(third.value().from_cache);
  EXPECT_EQ(third.value().hits, first.value().hits);

  // A new epoch changes the key: the next lookup misses and recomputes
  // against the fresh snapshot.
  epochs.Publish(
      ReadSnapshot::Capture(*live.engine, live.searcher->index()));
  Result<QueryResponse> fourth = server.Query(request);
  ASSERT_OK(fourth);
  EXPECT_FALSE(fourth.value().from_cache);
  EXPECT_EQ(fourth.value().epoch, 2u);
}

// ------------------------- Full-stack determinism --------------------------

// The tentpole property (ISSUE satellite d): K reader threads pinned to
// epochs must see byte-identical results no matter how the writer
// churns, and every epoch's answer must equal what the serial engine
// answered at exactly that acked prefix. The writer records the serial
// answer right after each publish (it is the sole mutator, so nothing
// moves between the ack and the record); readers pin epochs at random
// times and replay the same query repeatedly.
TEST(ServingDeterminismTest, EpochPinnedReadsAreByteIdenticalUnderLoad) {
  const std::string dir = FreshDir("determinism");
  datagen::CorpusConfig config;
  config.seed = 99;
  config.num_sources = 3;
  config.num_stories = 8;
  config.target_num_snippets = 260;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();

  Result<std::unique_ptr<ServingEngine>> opened =
      ServingEngine::Open(dir, ServerOptions{});
  ASSERT_OK(opened);
  ServingEngine& serving = *opened.value();
  ASSERT_OK(serving.durable().ImportVocabularies(
      *corpus.entity_vocabulary, *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    ASSERT_OK(serving.durable().RegisterSource(source.name));
  }
  // Seed half the corpus so epoch 1 already has content.
  const size_t half = corpus.snippets.size() / 2;
  std::vector<Snippet> warmup;
  for (size_t i = 0; i < half; ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    warmup.push_back(std::move(copy));
  }
  ASSERT_OK(serving.durable().AddSnippets(std::move(warmup)));

  // TermIds are stable from here on (vocabularies fully imported), so
  // one ParsedQuery is valid at every epoch.
  ParsedQuery query;
  query.terms.push_back({Field::kEntity, 0, {}, "e0"});
  query.terms.push_back({Field::kEntity, 1, {}, "e1"});
  query.terms.push_back({Field::kKeyword, 0, {}, "k0"});
  SearchOptions options;
  options.k = 15;

  // expected[epoch] = the serial engine's answer at that acked prefix.
  std::map<uint64_t, std::vector<StoryHit>> expected;
  auto record = [&] {
    expected[serving.epochs().current_epoch()] =
        serving.search().Search(query, options);
  };
  record();

  std::atomic<bool> stop{false};
  constexpr int kReaders = 4;
  std::vector<std::map<uint64_t, std::vector<StoryHit>>> seen(kReaders);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const ReadSnapshot> snapshot =
            serving.epochs().Pin();
        if (snapshot == nullptr) continue;
        std::vector<StoryHit> hits = snapshot->Search(query, options);
        // Re-running on the pinned snapshot must be byte-identical,
        // writer churn notwithstanding.
        if (snapshot->Search(query, options) != hits) ++mismatches;
        auto [it, inserted] =
            seen[r].emplace(snapshot->epoch(), std::move(hits));
        // Revisiting an epoch (pinned earlier) must agree with what
        // this reader saw there the first time.
        if (!inserted && it->second != snapshot->Search(query, options)) {
          ++mismatches;
        }
      }
    });
  }

  // The writer streams the second half in batches; each ack publishes
  // a new epoch and records the serial answer for it.
  for (size_t i = half; i < corpus.snippets.size();) {
    std::vector<Snippet> chunk;
    for (size_t j = 0; j < 20 && i < corpus.snippets.size(); ++j, ++i) {
      Snippet copy = corpus.snippets[i];
      copy.id = kInvalidSnippetId;
      chunk.push_back(std::move(copy));
    }
    ASSERT_OK(serving.durable().AddSnippets(std::move(chunk)));
    record();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Every epoch any reader served equals the serial engine's answer at
  // that acked prefix, byte for byte.
  size_t checked = 0;
  for (const auto& reader_seen : seen) {
    for (const auto& [epoch, hits] : reader_seen) {
      auto it = expected.find(epoch);
      ASSERT_NE(it, expected.end()) << "unexpected epoch " << epoch;
      EXPECT_EQ(hits, it->second) << "epoch " << epoch;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(serving.epochs().GetStats().current_epoch,
            expected.rbegin()->first);
}

// ServingEngine end-to-end: the commit hook publishes an epoch per
// acked op, Query serves epoch-consistent answers, and reopening the
// directory recovers into a servable state.
TEST(ServingEngineTest, PublishesPerOpAndRecoversIntoServableState) {
  const std::string dir = FreshDir("end_to_end");
  {
    ServerOptions options;
    options.num_threads = 1;
    Result<std::unique_ptr<ServingEngine>> opened =
        ServingEngine::Open(dir, options);
    ASSERT_OK(opened);
    ServingEngine& serving = *opened.value();
    EXPECT_EQ(serving.epochs().current_epoch(), 1u);  // Initial publish.

    ASSERT_OK(serving.durable().RegisterSource("wire"));
    EXPECT_EQ(serving.epochs().current_epoch(), 2u);
    Result<text::TermId> ukraine =
        serving.durable().AddGazetteerEntity("Ukraine");
    ASSERT_OK(ukraine);
    Snippet snippet = MakeSnippet(0, MakeTimestamp(2014, 7, 17),
                                  {{ukraine.value(), 2.0}}, {}, "Accident");
    ASSERT_OK(serving.durable().AddSnippet(std::move(snippet)));
    uint64_t epoch = serving.epochs().current_epoch();
    EXPECT_EQ(epoch, 4u);  // open + source + entity + snippet.

    QueryRequest request;
    request.query = "Ukraine";
    Result<QueryResponse> response = serving.Query(request);
    ASSERT_OK(response);
    EXPECT_EQ(response.value().epoch, epoch);
    ASSERT_EQ(response.value().hits.size(), 1u);
    ASSERT_OK(serving.durable().Close());
  }
  // Reopen the directory: recovery + initial publish must serve the
  // same answer without any re-ingest.
  Result<std::unique_ptr<ServingEngine>> reopened =
      ServingEngine::Open(dir, ServerOptions{});
  ASSERT_OK(reopened);
  QueryRequest request;
  request.query = "Ukraine";
  Result<QueryResponse> response = reopened.value()->Query(request);
  ASSERT_OK(response);
  ASSERT_EQ(response.value().hits.size(), 1u);
}

// --------------------- COW capture fidelity (PR 8) -------------------------

/// Byte-level equality of two snapshots: every posting list over the
/// whole term space, event-type enumeration, single-term searches over
/// every story and corpus totals. This is the "byte-identical to a
/// from-scratch rebuild" contract the COW capture must uphold
/// (DESIGN.md §15).
void ExpectSnapshotsEqual(const ReadSnapshot& got, const ReadSnapshot& want,
                          size_t num_entities, size_t num_keywords) {
  ASSERT_EQ(got.index().num_documents(), want.index().num_documents());
  ASSERT_EQ(got.index().num_postings(), want.index().num_postings());
  ASSERT_EQ(got.index().num_terms(Field::kEntity),
            want.index().num_terms(Field::kEntity));
  ASSERT_EQ(got.index().num_terms(Field::kKeyword),
            want.index().num_terms(Field::kKeyword));
  EXPECT_EQ(got.total_stories(), want.total_stories());
  EXPECT_EQ(got.index().EventTypes(), want.index().EventTypes());

  auto expect_field = [&](Field field, size_t num_terms) {
    for (text::TermId term = 0; term < num_terms; ++term) {
      const search::PostingsIndex::PostingList* a =
          got.index().Postings(field, term);
      const search::PostingsIndex::PostingList* b =
          want.index().Postings(field, term);
      ASSERT_EQ(a == nullptr, b == nullptr)
          << "field " << static_cast<int>(field) << " term " << term;
      if (a == nullptr) continue;
      ASSERT_EQ(a->size(), b->size()) << "term " << term;
      // Run boundaries follow each index's insertion history; the
      // flattened lists must be equal.
      const std::vector<search::Posting> fa = a->Flatten();
      const std::vector<search::Posting> fb = b->Flatten();
      for (size_t i = 0; i < a->size(); ++i) {
        ASSERT_EQ(fa[i].snippet, fb[i].snippet);
        ASSERT_EQ(fa[i].source, fb[i].source);
        ASSERT_EQ(fa[i].timestamp, fb[i].timestamp);
        ASSERT_EQ(fa[i].tf, fb[i].tf);
      }
    }
  };
  expect_field(Field::kEntity, num_entities);
  expect_field(Field::kKeyword, num_keywords);

  const SearchOptions all = EveryStory(want.total_stories());
  for (text::TermId term = 0; term < num_entities; ++term) {
    ASSERT_EQ(got.Search(TermQuery(Field::kEntity, term), all),
              want.Search(TermQuery(Field::kEntity, term), all));
  }
  for (text::TermId term = 0; term < num_keywords; ++term) {
    ASSERT_EQ(got.Search(TermQuery(Field::kKeyword, term), all),
              want.Search(TermQuery(Field::kKeyword, term), all));
  }
}

/// One recorded mutation against the engine, replayable verbatim.
struct TraceOp {
  enum Kind { kAdd, kRemoveSource, kRefine, kAlign } kind = kAdd;
  std::vector<size_t> snippet_indices;  // kAdd: into corpus.snippets.
  SourceId source = kInvalidSourceId;   // kRemoveSource.
};

void ApplyTraceOp(const TraceOp& op, const datagen::Corpus& corpus,
                  StoryPivotEngine* engine) {
  switch (op.kind) {
    case TraceOp::kAdd: {
      std::vector<Snippet> batch;
      batch.reserve(op.snippet_indices.size());
      for (size_t index : op.snippet_indices) {
        Snippet copy = corpus.snippets[index];
        copy.id = kInvalidSnippetId;
        batch.push_back(std::move(copy));
      }
      SP_CHECK_OK(engine->AddSnippets(std::move(batch)));
      break;
    }
    case TraceOp::kRemoveSource:
      SP_CHECK_OK(engine->RemoveSource(op.source));
      break;
    case TraceOp::kRefine:
      engine->Refine();
      break;
    case TraceOp::kAlign:
      engine->Align();
      break;
  }
}

// ISSUE satellite: randomized AddSnippets/RemoveSource/Refine/Align mix
// with a COW capture kept alive at EVERY step, across 40 seeds. After
// the full run — with every later mutation having path-copied over the
// shared structure — each retained snapshot must still be byte-identical
// to a from-scratch rebuild of the engine at exactly that prefix.
TEST(SnapshotRebuildEqualityTest, EveryCaptureMatchesFromScratchRebuild) {
  datagen::CorpusConfig config;
  config.num_sources = 4;
  config.num_entities = 60;
  config.num_stories = 6;
  config.target_num_snippets = 120;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();
  const size_t num_entities = corpus.entity_vocabulary->size();
  const size_t num_keywords = corpus.keyword_vocabulary->size();

  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);

    auto fresh_stack = [&corpus] {
      LiveStack stack;
      stack.engine = std::make_unique<StoryPivotEngine>();
      SP_CHECK_OK(stack.engine->ImportVocabularies(
          *corpus.entity_vocabulary, *corpus.keyword_vocabulary));
      for (const SourceInfo& source : corpus.sources) {
        stack.engine->RegisterSource(source.name);
      }
      stack.searcher =
          std::make_unique<search::SearchEngine>(stack.engine.get());
      return stack;
    };

    // Pass 1: random walk, recording the trace and freezing a snapshot
    // after every op. All snapshots stay alive to the end.
    LiveStack live = fresh_stack();
    std::vector<TraceOp> trace;
    std::vector<std::unique_ptr<ReadSnapshot>> kept;
    std::vector<bool> source_live(corpus.sources.size(), true);
    size_t next_snippet = 0;
    size_t sources_left = corpus.sources.size();
    for (int step = 0; step < 10; ++step) {
      TraceOp op;
      const uint64_t roll = rng() % 100;
      if (roll < 60 || next_snippet == 0) {
        op.kind = TraceOp::kAdd;
        for (int j = 0; j < 8 && next_snippet < corpus.snippets.size();
             ++next_snippet) {
          if (!source_live[corpus.snippets[next_snippet].source]) continue;
          op.snippet_indices.push_back(next_snippet);
          ++j;
        }
        if (op.snippet_indices.empty()) op.kind = TraceOp::kRefine;
      } else if (roll < 75 && sources_left > 1) {
        op.kind = TraceOp::kRemoveSource;
        SourceId victim = rng() % corpus.sources.size();
        while (!source_live[victim]) {
          victim = (victim + 1) % corpus.sources.size();
        }
        op.source = victim;
        source_live[victim] = false;
        --sources_left;
      } else if (roll < 90) {
        op.kind = TraceOp::kRefine;
      } else {
        op.kind = TraceOp::kAlign;
      }
      ApplyTraceOp(op, corpus, live.engine.get());
      trace.push_back(op);
      kept.push_back(
          ReadSnapshot::Capture(*live.engine, live.searcher->index()));
    }

    // Pass 2: replay the identical trace on a fresh engine; at each
    // prefix the retained COW snapshot from pass 1 must equal a capture
    // of the rebuilt state, byte for byte.
    LiveStack rebuild = fresh_stack();
    for (size_t i = 0; i < trace.size(); ++i) {
      ApplyTraceOp(trace[i], corpus, rebuild.engine.get());
      std::unique_ptr<ReadSnapshot> reference = ReadSnapshot::Capture(
          *rebuild.engine, rebuild.searcher->index());
      ExpectSnapshotsEqual(*kept[i], *reference, num_entities, num_keywords);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// A sharper write-immunity probe than IsImmuneToWritesAfterCapture: the
// post-capture mutations include the structurally violent ones —
// RemoveSource (drops a whole partition), Refine (moves snippets
// between stories), Align, and snippet removal — all of which path-copy
// through the nodes the frozen snapshot shares.
TEST(ReadSnapshotTest, SurvivesAggressiveMutationAfterCapture) {
  datagen::CorpusConfig config;
  config.num_sources = 3;
  config.num_entities = 40;
  config.num_stories = 5;
  config.target_num_snippets = 80;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).Generate();

  LiveStack live;
  live.engine = std::make_unique<StoryPivotEngine>();
  SP_CHECK_OK(live.engine->ImportVocabularies(*corpus.entity_vocabulary,
                                              *corpus.keyword_vocabulary));
  for (const SourceInfo& source : corpus.sources) {
    live.engine->RegisterSource(source.name);
  }
  live.searcher = std::make_unique<search::SearchEngine>(live.engine.get());
  const size_t half = corpus.snippets.size() / 2;
  std::vector<Snippet> warmup;
  for (size_t i = 0; i < half; ++i) {
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    warmup.push_back(std::move(copy));
  }
  Result<std::vector<SnippetId>> added =
      live.engine->AddSnippets(std::move(warmup));
  ASSERT_OK(added);

  std::unique_ptr<ReadSnapshot> snapshot =
      ReadSnapshot::Capture(*live.engine, live.searcher->index());
  // Record the full answer surface before any mutation.
  const size_t num_entities = corpus.entity_vocabulary->size();
  const size_t num_keywords = corpus.keyword_vocabulary->size();
  const size_t docs_before = snapshot->index().num_documents();
  const size_t postings_before = snapshot->index().num_postings();
  const size_t stories_before = snapshot->total_stories();
  const auto events_before = snapshot->index().EventTypes();
  const SearchOptions all = EveryStory(stories_before);
  std::vector<std::vector<search::Posting>> entity_lists(num_entities);
  std::vector<std::vector<StoryHit>> entity_hits(num_entities);
  for (text::TermId term = 0; term < num_entities; ++term) {
    const search::PostingsIndex::PostingList* list =
        snapshot->index().Postings(Field::kEntity, term);
    if (list != nullptr) entity_lists[term] = list->Flatten();
    entity_hits[term] = snapshot->Search(TermQuery(Field::kEntity, term), all);
  }

  // Now mutate as hard as the engine allows.
  live.engine->Refine();
  live.engine->Align();
  SP_CHECK_OK(live.engine->RemoveSource(corpus.snippets[0].source));
  for (size_t i = 0; i < added.value().size(); i += 7) {
    // Snippets of the removed source are already gone; skip those.
    if (corpus.snippets[i].source == corpus.snippets[0].source) continue;
    ASSERT_OK(live.engine->RemoveSnippet(added.value()[i]));
  }
  for (size_t i = half; i < corpus.snippets.size(); ++i) {
    if (corpus.snippets[i].source == corpus.snippets[0].source) continue;
    Snippet copy = corpus.snippets[i];
    copy.id = kInvalidSnippetId;
    ASSERT_OK(live.engine->AddSnippet(std::move(copy)).status());
  }
  live.engine->Refine();
  live.engine->Align();

  // The frozen view must not have moved a byte.
  EXPECT_EQ(snapshot->index().num_documents(), docs_before);
  EXPECT_EQ(snapshot->index().num_postings(), postings_before);
  EXPECT_EQ(snapshot->total_stories(), stories_before);
  EXPECT_EQ(snapshot->index().EventTypes(), events_before);
  for (text::TermId term = 0; term < num_entities; ++term) {
    const search::PostingsIndex::PostingList* list =
        snapshot->index().Postings(Field::kEntity, term);
    if (entity_lists[term].empty()) {
      ASSERT_TRUE(list == nullptr || list->empty()) << "term " << term;
    } else {
      ASSERT_NE(list, nullptr) << "term " << term;
      ASSERT_EQ(list->size(), entity_lists[term].size());
      const std::vector<search::Posting> now = list->Flatten();
      for (size_t i = 0; i < list->size(); ++i) {
        ASSERT_EQ(now[i].snippet, entity_lists[term][i].snippet);
        ASSERT_EQ(now[i].tf, entity_lists[term][i].tf);
      }
    }
    ASSERT_EQ(snapshot->Search(TermQuery(Field::kEntity, term), all),
              entity_hits[term]);
  }
  (void)num_keywords;
}

// Batched publication (ISSUE tentpole): every_ops = 3 coalesces acked
// ops into one epoch, Flush() publishes a partial batch, and recovery
// always publishes immediately whatever the policy.
TEST(ServingEngineTest, BatchedPolicyCoalescesFlushesAndRecovers) {
  const std::string dir = FreshDir("batched");
  serve::PublishPolicy policy;
  policy.every_ops = 3;
  {
    ServerOptions options;
    options.num_threads = 1;
    Result<std::unique_ptr<ServingEngine>> opened = ServingEngine::Open(
        dir, options, {}, {}, policy);
    ASSERT_OK(opened);
    ServingEngine& serving = *opened.value();
    EXPECT_EQ(serving.epochs().current_epoch(), 1u);
    EXPECT_EQ(serving.publish_policy().every_ops, 3u);

    ASSERT_OK(serving.durable().RegisterSource("wire"));
    EXPECT_EQ(serving.epochs().current_epoch(), 1u);  // 1 op pending.
    EXPECT_EQ(serving.unpublished_ops(), 1u);
    Result<text::TermId> ukraine =
        serving.durable().AddGazetteerEntity("Ukraine");
    ASSERT_OK(ukraine);
    EXPECT_EQ(serving.epochs().current_epoch(), 1u);  // 2 ops pending.
    Snippet first = MakeSnippet(0, MakeTimestamp(2014, 7, 17),
                                {{ukraine.value(), 2.0}}, {}, "Accident");
    ASSERT_OK(serving.durable().AddSnippet(std::move(first)));
    EXPECT_EQ(serving.epochs().current_epoch(), 2u);  // 3rd op publishes.
    EXPECT_EQ(serving.unpublished_ops(), 0u);

    // A 4th op stays unpublished: readers still see epoch 2's state.
    Snippet second = MakeSnippet(0, MakeTimestamp(2014, 7, 18),
                                 {{ukraine.value(), 1.0}}, {}, "Accident");
    ASSERT_OK(serving.durable().AddSnippet(std::move(second)));
    EXPECT_EQ(serving.epochs().current_epoch(), 2u);
    EXPECT_EQ(serving.unpublished_ops(), 1u);
    QueryRequest request;
    request.query = "Ukraine";
    Result<QueryResponse> stale = serving.Query(request);
    ASSERT_OK(stale);
    EXPECT_EQ(stale.value().epoch, 2u);
    ASSERT_EQ(stale.value().hits.size(), 1u);
    // The pinned epoch predates the 4th op: one document, not two.
    EXPECT_EQ(serving.epochs().Pin()->index().num_documents(), 1u);

    // Flush publishes the pending partial batch.
    EXPECT_EQ(serving.Flush(), 3u);
    EXPECT_EQ(serving.unpublished_ops(), 0u);
    EXPECT_EQ(serving.Flush(), 0u);  // Nothing pending: no-op.
    Result<QueryResponse> fresh = serving.Query(request);
    ASSERT_OK(fresh);
    EXPECT_EQ(fresh.value().epoch, 3u);
    // The two snippets are a day apart and cluster as two stories.
    ASSERT_EQ(fresh.value().hits.size(), 2u);
    EXPECT_EQ(serving.epochs().Pin()->index().num_documents(), 2u);
    ASSERT_OK(serving.durable().Close());
  }
  // Recovery publishes the rebuilt prefix immediately — batching must
  // never leave a reopened engine without a servable epoch.
  Result<std::unique_ptr<ServingEngine>> reopened =
      ServingEngine::Open(dir, ServerOptions{}, {}, {}, policy);
  ASSERT_OK(reopened);
  EXPECT_GE(reopened.value()->epochs().current_epoch(), 1u);
  EXPECT_EQ(reopened.value()->unpublished_ops(), 0u);
  QueryRequest request;
  request.query = "Ukraine";
  Result<QueryResponse> response = reopened.value()->Query(request);
  ASSERT_OK(response);
  ASSERT_EQ(response.value().hits.size(), 2u);
  EXPECT_EQ(reopened.value()->epochs().Pin()->index().num_documents(), 2u);
}

// ISSUE satellite: publishing an epoch prunes cache entries whose epoch
// can never hit again, and the stats tell capacity from epoch evictions.
TEST(QueryCacheTest, EvictBelowEpochPrunesOnlyDeadEntries) {
  QueryCache cache(8);
  std::vector<StoryHit> hits;
  cache.Insert("a", 1, hits);
  cache.Insert("b", 1, hits);
  cache.Insert("c", 2, hits);
  cache.EvictBelowEpoch(2);

  std::vector<StoryHit> out;
  EXPECT_FALSE(cache.Lookup("a", &out));
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("c", &out));

  QueryCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evicted_by_epoch, 2u);
  EXPECT_EQ(stats.evicted_by_capacity, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 1u);

  cache.EvictBelowEpoch(2);  // Idempotent: nothing left below 2.
  EXPECT_EQ(cache.GetStats().evicted_by_epoch, 2u);
}

// End to end: the ServingEngine publish path drives the pruning hook.
TEST(ServingEngineTest, PublishPrunesDeadEpochCacheEntries) {
  const std::string dir = FreshDir("cache_prune");
  ServerOptions options;
  options.num_threads = 1;
  Result<std::unique_ptr<ServingEngine>> opened =
      ServingEngine::Open(dir, options);
  ASSERT_OK(opened);
  ServingEngine& serving = *opened.value();
  ASSERT_OK(serving.durable().RegisterSource("wire"));
  Result<text::TermId> ukraine =
      serving.durable().AddGazetteerEntity("Ukraine");
  ASSERT_OK(ukraine);

  QueryRequest request;
  request.query = "Ukraine";
  ASSERT_OK(serving.Query(request));  // Miss: caches at current epoch.
  EXPECT_EQ(serving.server().GetStats().cache.size, 1u);

  // Any acked op publishes (default policy) and sweeps the dead entry.
  Snippet snippet = MakeSnippet(0, MakeTimestamp(2014, 7, 17),
                                {{ukraine.value(), 2.0}}, {}, "Accident");
  ASSERT_OK(serving.durable().AddSnippet(std::move(snippet)));
  QueryCache::Stats stats = serving.server().GetStats().cache;
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.evicted_by_epoch, 1u);
  EXPECT_EQ(stats.evicted_by_capacity, 0u);
}

// Capture observability (ISSUE satellite): every publish records wall
// time and the copied-vs-shared byte split in EpochManager::Stats.
TEST(ServingEngineTest, RecordsCaptureCostPerPublish) {
  const std::string dir = FreshDir("capture_cost");
  Result<std::unique_ptr<ServingEngine>> opened =
      ServingEngine::Open(dir, ServerOptions{});
  ASSERT_OK(opened);
  ServingEngine& serving = *opened.value();
  ASSERT_OK(serving.durable().RegisterSource("wire"));
  Result<text::TermId> ukraine =
      serving.durable().AddGazetteerEntity("Ukraine");
  ASSERT_OK(ukraine);
  for (int i = 0; i < 5; ++i) {
    Snippet snippet =
        MakeSnippet(0, MakeTimestamp(2014, 7, 17) + i * kSecondsPerHour,
                    {{ukraine.value(), 1.0}}, {}, "Accident");
    ASSERT_OK(serving.durable().AddSnippet(std::move(snippet)));
  }
  EpochManager::Stats stats = serving.epochs().GetStats();
  // Initial publish + source + entity + 5 snippets.
  EXPECT_EQ(stats.captures, 8u);
  EXPECT_GE(stats.total_capture_ms, stats.last_capture_ms);
  // Every publish accounts its bytes: at toy scale the writer's path
  // copies dominate (shared can legitimately clamp to zero), but the
  // copied side must be visible and accumulate.
  EXPECT_GT(stats.last_bytes_shared + stats.last_bytes_copied, 0u);
  EXPECT_GT(stats.total_bytes_copied, 0u);
  EXPECT_GE(stats.total_bytes_copied, stats.last_bytes_copied);
}

}  // namespace
}  // namespace storypivot
