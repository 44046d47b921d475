#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "datagen/corpus.h"
#include "datagen/gdelt_export.h"
#include "datagen/mh17.h"
#include "datagen/word_lists.h"
#include "datagen/world.h"
#include "util/hash.h"
#include "util/strings.h"

namespace storypivot::datagen {
namespace {

// -------------------------------- WorldModel -------------------------------

TEST(WorldModelTest, EntityUniverseHasRequestedSize) {
  text::Vocabulary entities, keywords;
  WorldConfig config;
  config.num_entities = 120;
  config.num_communities = 10;
  WorldModel world(config, &entities, &keywords);
  EXPECT_EQ(world.entity_names().size(), 120u);
  EXPECT_EQ(entities.size(), 120u);
  // Every entity name is distinct.
  std::set<std::string> names(world.entity_names().begin(),
                              world.entity_names().end());
  EXPECT_EQ(names.size(), 120u);
}

TEST(WorldModelTest, CommunitiesPartitionEntities) {
  text::Vocabulary entities, keywords;
  WorldConfig config;
  config.num_entities = 100;
  config.num_communities = 9;
  WorldModel world(config, &entities, &keywords);
  ASSERT_EQ(world.communities().size(), 9u);
  std::set<text::TermId> seen;
  size_t total = 0;
  for (const auto& community : world.communities()) {
    EXPECT_FALSE(community.empty());
    total += community.size();
    seen.insert(community.begin(), community.end());
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(seen.size(), 100u);  // No entity in two communities.
}

TEST(WorldModelTest, TopicsDrawFromDomains) {
  text::Vocabulary entities, keywords;
  WorldConfig config;
  config.topics_per_domain = 3;
  WorldModel world(config, &entities, &keywords);
  EXPECT_EQ(world.topics().size(), Domains().size() * 3);
  for (const Topic& topic : world.topics()) {
    EXPECT_FALSE(topic.words.empty());
    EXPECT_EQ(topic.words.size(), topic.surfaces.size());
    EXPECT_EQ(topic.words.size(), topic.weights.size());
    EXPECT_GE(topic.domain, 0);
    EXPECT_LT(topic.domain, static_cast<int>(Domains().size()));
  }
}

TEST(WorldModelTest, GazetteerRecognisesWorldEntities) {
  text::Vocabulary entities, keywords;
  WorldModel world({}, &entities, &keywords);
  text::Gazetteer gazetteer(&entities);
  world.PopulateGazetteer(&gazetteer);
  // "Ukraine" is the first country seed.
  auto mentions =
      gazetteer.FindMentions(text::Tokenize("crisis in Ukraine today"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(entities.TermOf(mentions[0].entity), "Ukraine");
}

TEST(WorldModelTest, DeterministicForSeed) {
  auto build = [] {
    auto entities = std::make_unique<text::Vocabulary>();
    auto keywords = std::make_unique<text::Vocabulary>();
    WorldConfig config;
    config.seed = 77;
    WorldModel world(config, entities.get(), keywords.get());
    return world.entity_names();
  };
  EXPECT_EQ(build(), build());
}

// ---------------------------- CorpusGenerator ------------------------------

class CorpusFixture : public ::testing::Test {
 protected:
  static CorpusConfig SmallConfig() {
    CorpusConfig config;
    config.seed = 9;
    config.num_sources = 5;
    config.num_stories = 12;
    config.target_num_snippets = 800;
    return config;
  }
};

TEST_F(CorpusFixture, SnippetCountNearTarget) {
  Corpus corpus = CorpusGenerator(SmallConfig()).Generate();
  EXPECT_GT(corpus.snippets.size(), 500u);
  EXPECT_LT(corpus.snippets.size(), 1200u);
  EXPECT_EQ(corpus.sources.size(), 5u);
  EXPECT_EQ(corpus.truth_stories.size(), 12u);
}

TEST_F(CorpusFixture, SnippetsAreWellFormed) {
  Corpus corpus = CorpusGenerator(SmallConfig()).Generate();
  for (const Snippet& s : corpus.snippets) {
    EXPECT_LT(s.source, corpus.sources.size());
    EXPECT_GE(s.truth_story, 0);
    EXPECT_LT(s.truth_story,
              static_cast<int64_t>(corpus.truth_stories.size()));
    EXPECT_FALSE(s.entities.empty());
    EXPECT_FALSE(s.keywords.empty());
    EXPECT_FALSE(s.description.empty());
    // All term ids resolve in the corpus vocabularies.
    for (const auto& [term, count] : s.entities.entries()) {
      EXPECT_LT(term, corpus.entity_vocabulary->size());
    }
    for (const auto& [term, count] : s.keywords.entries()) {
      EXPECT_LT(term, corpus.keyword_vocabulary->size());
    }
  }
}

TEST_F(CorpusFixture, SnippetsCarryEventTypes) {
  Corpus corpus = CorpusGenerator(SmallConfig()).Generate();
  std::set<std::string> types;
  for (const Snippet& s : corpus.snippets) {
    EXPECT_FALSE(s.event_type.empty());
    types.insert(s.event_type);
  }
  // Several domains are in play, and types are capitalised domain names.
  EXPECT_GE(types.size(), 3u);
  EXPECT_TRUE(types.begin()->size() > 0 &&
              std::isupper(static_cast<unsigned char>((*types.begin())[0])));
}

TEST_F(CorpusFixture, ArrivalsSortedAndLagEventTimes) {
  Corpus corpus = CorpusGenerator(SmallConfig()).Generate();
  ASSERT_EQ(corpus.arrivals.size(), corpus.snippets.size());
  for (size_t i = 1; i < corpus.arrivals.size(); ++i) {
    EXPECT_LE(corpus.arrivals[i - 1], corpus.arrivals[i]);
  }
  // Publication never precedes the event by more than the timestamp jitter.
  for (size_t i = 0; i < corpus.snippets.size(); ++i) {
    EXPECT_GE(corpus.arrivals[i] + 24 * kSecondsPerHour,
              corpus.snippets[i].timestamp);
  }
  // Event timestamps are NOT sorted in arrival order (out-of-order is the
  // point of §2.4).
  bool out_of_order = false;
  for (size_t i = 1; i < corpus.snippets.size(); ++i) {
    if (corpus.snippets[i].timestamp < corpus.snippets[i - 1].timestamp) {
      out_of_order = true;
      break;
    }
  }
  EXPECT_TRUE(out_of_order);
}

TEST_F(CorpusFixture, TimestampsWithinConfiguredRange) {
  CorpusConfig config = SmallConfig();
  Corpus corpus = CorpusGenerator(config).Generate();
  for (const Snippet& s : corpus.snippets) {
    EXPECT_GE(s.timestamp, config.start_time - kSecondsPerDay);
    EXPECT_LE(s.timestamp, config.end_time + kSecondsPerDay);
  }
}

TEST_F(CorpusFixture, EverySourceReportsSomething) {
  Corpus corpus = CorpusGenerator(SmallConfig()).Generate();
  std::set<SourceId> reporting;
  for (const Snippet& s : corpus.snippets) reporting.insert(s.source);
  EXPECT_EQ(reporting.size(), corpus.sources.size());
}

TEST_F(CorpusFixture, StoriesSpreadOverSources) {
  // Head stories should be covered by several sources (alignment needs
  // cross-source counterparts).
  Corpus corpus = CorpusGenerator(SmallConfig()).Generate();
  std::map<int64_t, std::set<SourceId>> sources_of_story;
  for (const Snippet& s : corpus.snippets) {
    sources_of_story[s.truth_story].insert(s.source);
  }
  EXPECT_GE(sources_of_story.at(0).size(), 3u);
}

TEST_F(CorpusFixture, DeterministicForSeed) {
  Corpus a = CorpusGenerator(SmallConfig()).Generate();
  Corpus b = CorpusGenerator(SmallConfig()).Generate();
  ASSERT_EQ(a.snippets.size(), b.snippets.size());
  for (size_t i = 0; i < a.snippets.size(); ++i) {
    EXPECT_EQ(a.snippets[i].timestamp, b.snippets[i].timestamp);
    EXPECT_EQ(a.snippets[i].truth_story, b.snippets[i].truth_story);
    EXPECT_TRUE(a.snippets[i].entities == b.snippets[i].entities);
    EXPECT_TRUE(a.snippets[i].keywords == b.snippets[i].keywords);
  }
}

TEST_F(CorpusFixture, DifferentSeedsDiffer) {
  CorpusConfig other = SmallConfig();
  other.seed = 10;
  Corpus a = CorpusGenerator(SmallConfig()).Generate();
  Corpus b = CorpusGenerator(other).Generate();
  bool differs = a.snippets.size() != b.snippets.size();
  for (size_t i = 0; !differs && i < a.snippets.size(); ++i) {
    differs = a.snippets[i].timestamp != b.snippets[i].timestamp;
  }
  EXPECT_TRUE(differs);
}

TEST_F(CorpusFixture, RawTextModeEmitsDocuments) {
  CorpusConfig config = SmallConfig();
  config.target_num_snippets = 100;
  config.emit_raw_text = true;
  Corpus corpus = CorpusGenerator(config).Generate();
  ASSERT_EQ(corpus.documents.size(), corpus.snippets.size());
  for (size_t i = 0; i < corpus.documents.size(); ++i) {
    EXPECT_FALSE(corpus.documents[i].paragraphs.empty());
    EXPECT_EQ(corpus.documents[i].source, corpus.snippets[i].source);
    EXPECT_EQ(corpus.documents[i].truth_story,
              corpus.snippets[i].truth_story);
  }
}

TEST_F(CorpusFixture, EpisodeDriftChangesContent) {
  // Within a multi-episode story, the first and last episode keyword
  // pools must differ (story evolution).
  CorpusConfig config = SmallConfig();
  config.max_episodes = 4;
  config.mean_story_duration_days = 60;
  Corpus corpus = CorpusGenerator(config).Generate();
  bool found_drift = false;
  for (const TruthStory& story : corpus.truth_stories) {
    if (story.episodes.size() < 3) continue;
    std::set<text::TermId> first(story.episodes.front().word_pool.begin(),
                                 story.episodes.front().word_pool.end());
    std::set<text::TermId> last(story.episodes.back().word_pool.begin(),
                                story.episodes.back().word_pool.end());
    std::vector<text::TermId> inter;
    std::set_intersection(first.begin(), first.end(), last.begin(),
                          last.end(), std::back_inserter(inter));
    if (inter.size() < first.size()) found_drift = true;
  }
  EXPECT_TRUE(found_drift);
}

TEST(GdeltPresetTest, MatchesPaperCard) {
  CorpusConfig preset = GdeltScalePreset();
  EXPECT_EQ(preset.num_sources, 50);
  EXPECT_EQ(preset.num_entities, 500);
  EXPECT_EQ(preset.start_time, MakeTimestamp(2014, 6, 1));
  EXPECT_EQ(preset.end_time, MakeTimestamp(2014, 12, 1));
  EXPECT_EQ(preset.target_num_snippets, 10'000'000);
}

// ------------------------------ GDELT export -------------------------------

// Pins the generator's output: the TSV of a scaled-down GDELT-preset
// corpus has the size and byte fold the generator produced when its
// syndicated-copy option still existed (at its default of 0, which drew
// no random number), so removing the option changed no corpus.
TEST(GdeltPresetTest, ExportIsByteStable) {
  CorpusConfig config = GdeltScalePreset();
  config.seed = 101;
  config.target_num_snippets = 3000;
  const std::string tsv = ExportTsv(CorpusGenerator(config).Generate());
  uint64_t fold = SplitMix64(tsv.size());
  for (unsigned char c : tsv) fold = HashCombine(fold, c);
  EXPECT_EQ(tsv.size(), 675414u);
  EXPECT_EQ(fold, 0x4fc7a7f2d3a06606ULL);
}

TEST(GdeltExportTest, TsvRoundTrip) {
  CorpusConfig config;
  config.seed = 13;
  config.num_sources = 3;
  config.num_stories = 5;
  config.target_num_snippets = 120;
  Corpus corpus = CorpusGenerator(config).Generate();
  std::string tsv = ExportTsv(corpus);
  Result<ImportedCorpus> imported = ImportTsv(tsv);
  ASSERT_TRUE(imported.ok());
  const ImportedCorpus& in = imported.value();
  ASSERT_EQ(in.snippets.size(), corpus.snippets.size());
  EXPECT_EQ(in.sources.size(), corpus.sources.size());
  for (size_t i = 0; i < in.snippets.size(); ++i) {
    const Snippet& a = corpus.snippets[i];
    const Snippet& b = in.snippets[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.truth_story, b.truth_story);
    // Timestamps round-trip at minute precision.
    EXPECT_LE(std::abs(a.timestamp - b.timestamp), 60);
    EXPECT_EQ(a.event_type, b.event_type);
    EXPECT_EQ(a.entities.size(), b.entities.size());
    EXPECT_EQ(a.keywords.size(), b.keywords.size());
    // Entity *names* round-trip even though ids may be re-assigned.
    for (const auto& [term, count] : a.entities.entries()) {
      const std::string& name = corpus.entity_vocabulary->TermOf(term);
      text::TermId new_id = in.entity_vocabulary->Lookup(name);
      ASSERT_NE(new_id, text::kInvalidTermId);
      EXPECT_GT(b.entities.ValueOf(new_id), 0.0);
    }
  }
}

TEST(GdeltExportTest, ImportRejectsMalformedRows) {
  EXPECT_FALSE(ImportTsv("").ok());
  // Header only: no rows is fine.
  Result<ImportedCorpus> empty =
      ImportTsv("id\tsource\tevent_date\tentities\tkeywords\tdescription"
                "\turl\ttruth\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().snippets.empty());
  // Wrong column count.
  EXPECT_FALSE(
      ImportTsv("id\tsource\tevent_type\tevent_date\tentities\tkeywords"
                "\tdescription\turl\ttruth\n1\tNYT\n")
          .ok());
  // Bad date.
  EXPECT_FALSE(
      ImportTsv("id\tsource\tevent_type\tevent_date\tentities\tkeywords"
                "\tdescription\turl\ttruth\n1\tNYT\tAccident"
                "\tnot-a-date\t\t\t\t\t0\n")
          .ok());
}

TEST(GdeltExportTest, PermissiveImportQuarantinesWithLineNumbers) {
  const std::string header =
      "id\tsource\tevent_type\tevent_date\tentities\tkeywords"
      "\tdescription\turl\ttruth\n";
  const std::string tsv =
      header +
      "1\tNYT\tAccident\t2014-07-17 13:20\tMH17\tcrash:2\td\tu\t0\n" +
      "oops\tNYT\tAccident\t2014-07-17 13:20\tMH17\tcrash:1\td\tu\t0\n" +
      "3\tBBC\n" +
      "4\tBBC\tAccident\tnot-a-date\tMH17\tcrash:1\td\tu\t1\n" +
      "5\tBBC\tAccident\t2014-07-18 09:00\tMH17\tcrash:3\td\tu\t0\n";
  ImportReport report;
  Result<ImportedCorpus> imported = ImportTsvPermissive(tsv, &report);
  ASSERT_TRUE(imported.ok());
  // Good rows import; each bad row is reported with its FILE line.
  EXPECT_EQ(imported.value().snippets.size(), 2u);
  EXPECT_EQ(report.rows_seen, 5u);
  EXPECT_EQ(report.rows_imported, 2u);
  ASSERT_EQ(report.skipped.size(), 3u);
  EXPECT_EQ(report.skipped[0].line, 3u);
  EXPECT_NE(report.skipped[0].reason.find("bad id"), std::string::npos);
  EXPECT_EQ(report.skipped[1].line, 4u);
  EXPECT_NE(report.skipped[1].reason.find("expected 9 fields"),
            std::string::npos);
  EXPECT_EQ(report.skipped[2].line, 5u);
  EXPECT_NE(report.skipped[2].reason.find("bad date"), std::string::npos);
  // Quarantined rows leave no trace: only one source (NYT from row 1 was
  // valid; the bad NYT/BBC rows interned nothing... BBC appears via the
  // valid row 6).
  EXPECT_EQ(imported.value().sources.size(), 2u);
}

TEST(GdeltExportTest, KeywordWeightsMustBeFinitePositiveNumbers) {
  const std::string header =
      "id\tsource\tevent_type\tevent_date\tentities\tkeywords"
      "\tdescription\turl\ttruth\n";
  const std::string good =
      "1\tNYT\tAccident\t2014-07-17 13:20\tMH17\twar:1;peace:1\td\tu\t0\n";
  const char* bad_keywords[] = {"war:inf;peace:1", "war:nan;talks:-2",
                                "war:abc",         "war:0",
                                "war:-1e-9",       "war:1e999",
                                "war: 2"};
  std::string tsv = header + good;
  for (size_t i = 0; i < std::size(bad_keywords); ++i) {
    tsv += StrFormat("%zu\tBBC\tAccident\t2014-07-18 09:00\tUkraine\t%s"
                     "\td\tu\t0\n",
                     i + 2, bad_keywords[i]);
  }
  ImportReport report;
  Result<ImportedCorpus> imported = ImportTsvPermissive(tsv, &report);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(report.rows_imported, 1u);
  ASSERT_EQ(report.skipped.size(), std::size(bad_keywords));
  for (size_t i = 0; i < report.skipped.size(); ++i) {
    EXPECT_EQ(report.skipped[i].line, i + 3);
    EXPECT_NE(report.skipped[i].reason.find("bad keyword weight"),
              std::string::npos)
        << report.skipped[i].reason;
  }
  // The quarantined rows touched neither the source table nor the
  // vocabularies.
  const ImportedCorpus& corpus = imported.value();
  EXPECT_EQ(corpus.sources.size(), 1u);
  EXPECT_EQ(corpus.entity_vocabulary->Lookup("Ukraine"),
            text::kInvalidTermId);
  EXPECT_EQ(corpus.keyword_vocabulary->Lookup("talks"),
            text::kInvalidTermId);
  EXPECT_EQ(corpus.keyword_vocabulary->size(), 2u);  // war, peace.
  // Strict mode fails the import on the first such row.
  Result<ImportedCorpus> strict = ImportTsv(header + good +
      "2\tBBC\tAccident\t2014-07-18 09:00\tUkraine\twar:inf\td\tu\t0\n");
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(std::string(strict.status().message()).find("bad keyword weight"),
            std::string::npos);
}

TEST(GdeltExportTest, TruthMustBeEmptyOrAnIntegerOfAtLeastMinusOne) {
  const std::string header =
      "id\tsource\tevent_type\tevent_date\tentities\tkeywords"
      "\tdescription\turl\ttruth\n";
  auto row = [](size_t id, const char* source, const char* truth) {
    return StrFormat("%zu\t%s\tAccident\t2014-07-17 13:20\tMH17\twar:1"
                     "\td\tu\t%s\n",
                     id, source, truth);
  };
  // Empty is unlabelled; -1 and any larger integer are kept as they are.
  std::string tsv = header + row(1, "NYT", "") + row(2, "NYT", "-1") +
                    row(3, "NYT", "0") + row(4, "NYT", "42");
  const char* bad_truths[] = {"abc", " 3", "3 ", "-2", "1.5", "+", "0x1"};
  for (size_t i = 0; i < std::size(bad_truths); ++i) {
    tsv += row(i + 5, "BBC", bad_truths[i]);
  }
  ImportReport report;
  Result<ImportedCorpus> imported = ImportTsvPermissive(tsv, &report);
  ASSERT_TRUE(imported.ok());
  const ImportedCorpus& corpus = imported.value();
  ASSERT_EQ(corpus.snippets.size(), 4u);
  EXPECT_EQ(corpus.snippets[0].truth_story, -1);
  EXPECT_EQ(corpus.snippets[1].truth_story, -1);
  EXPECT_EQ(corpus.snippets[2].truth_story, 0);
  EXPECT_EQ(corpus.snippets[3].truth_story, 42);
  ASSERT_EQ(report.skipped.size(), std::size(bad_truths));
  for (size_t i = 0; i < report.skipped.size(); ++i) {
    EXPECT_EQ(report.skipped[i].line, i + 6);
    EXPECT_NE(report.skipped[i].reason.find("bad truth"), std::string::npos)
        << report.skipped[i].reason;
  }
  // The quarantined rows touched no shared state: BBC never registered.
  EXPECT_EQ(corpus.sources.size(), 1u);
  // Strict mode fails the import on the first such row.
  for (const char* bad : bad_truths) {
    SCOPED_TRACE(bad);
    Result<ImportedCorpus> strict =
        ImportTsv(header + row(1, "NYT", "0") + row(2, "BBC", bad));
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(strict.status().message()).find("bad truth"),
              std::string::npos)
        << strict.status().ToString();
  }
  ASSERT_TRUE(ImportTsv(header + row(1, "NYT", "") + row(2, "NYT", "7")).ok());
}

TEST(GdeltExportTest, DatesMustBeZeroPaddedCalendarTimes) {
  const std::string header =
      "id\tsource\tevent_type\tevent_date\tentities\tkeywords"
      "\tdescription\turl\ttruth\n";
  auto row = [](size_t id, const char* source, const char* date) {
    return StrFormat("%zu\t%s\tAccident\t%s\tMH17\twar:1\td\tu\t0\n", id,
                     source, date);
  };
  // Leap days, the last minute of a day and a date alone are valid.
  std::string tsv = header + row(1, "NYT", "2016-02-29 23:59") +
                    row(2, "NYT", "2000-02-29 00:00") +
                    row(3, "NYT", "2014-07-17");
  const char* bad_dates[] = {
      "2014-13-45 99:99", "2014-02-31 10:00", "2014-00-00 00:00",
      "2014--1-17 13:20", "2014x07y17z13w20", "2014-07-17 13:20 trailing",
      "2015-02-29",       "1900-02-29 00:00", "2014-04-31 12:00",
      "2014-07-17 24:00", "2014-07-17 13:60", "2014-7-17 13:20",
      "2014-07-17 1:20",  " 2014-07-17",      "2014-07-17T13:20",
      "+014-07-17 13:20", "2014-07-17 13:2",  ""};
  for (size_t i = 0; i < std::size(bad_dates); ++i) {
    tsv += row(i + 4, "BBC", bad_dates[i]);
  }
  ImportReport report;
  Result<ImportedCorpus> imported = ImportTsvPermissive(tsv, &report);
  ASSERT_TRUE(imported.ok());
  const ImportedCorpus& corpus = imported.value();
  ASSERT_EQ(corpus.snippets.size(), 3u);
  EXPECT_EQ(corpus.snippets[0].timestamp, MakeTimestamp(2016, 2, 29, 23, 59));
  EXPECT_EQ(corpus.snippets[1].timestamp, MakeTimestamp(2000, 2, 29));
  EXPECT_EQ(corpus.snippets[2].timestamp, MakeTimestamp(2014, 7, 17));
  ASSERT_EQ(report.skipped.size(), std::size(bad_dates));
  for (size_t i = 0; i < report.skipped.size(); ++i) {
    EXPECT_EQ(report.skipped[i].line, i + 5);
    EXPECT_NE(report.skipped[i].reason.find("bad date"), std::string::npos)
        << report.skipped[i].reason;
  }
  // The quarantined rows touched no shared state: BBC never registered.
  EXPECT_EQ(corpus.sources.size(), 1u);
  // Strict mode fails the import on the first such row.
  for (const char* bad : bad_dates) {
    SCOPED_TRACE(bad);
    Result<ImportedCorpus> strict =
        ImportTsv(header + row(1, "NYT", "2014-07-17 13:20") +
                  row(2, "BBC", bad));
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(strict.status().message()).find("bad date"),
              std::string::npos)
        << strict.status().ToString();
  }
}

TEST(GdeltExportTest, PermissiveImportStillRejectsEmptyInput) {
  ImportReport report;
  EXPECT_FALSE(ImportTsvPermissive("", &report).ok());
}

TEST(GdeltExportTest, PermissiveMatchesStrictOnCleanInput) {
  CorpusConfig config;
  config.seed = 14;
  config.num_sources = 2;
  config.num_stories = 3;
  config.target_num_snippets = 60;
  Corpus corpus = CorpusGenerator(config).Generate();
  std::string tsv = ExportTsv(corpus);
  ImportReport report;
  Result<ImportedCorpus> permissive = ImportTsvPermissive(tsv, &report);
  Result<ImportedCorpus> strict = ImportTsv(tsv);
  ASSERT_TRUE(permissive.ok());
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(report.skipped.empty());
  EXPECT_EQ(report.rows_imported, report.rows_seen);
  ASSERT_EQ(permissive.value().snippets.size(),
            strict.value().snippets.size());
  for (size_t i = 0; i < strict.value().snippets.size(); ++i) {
    EXPECT_EQ(permissive.value().snippets[i].id,
              strict.value().snippets[i].id);
  }
}

// --------------------------------- MH17 ------------------------------------

TEST(Mh17Test, CorpusIsWellFormed) {
  Mh17Corpus corpus = MakeMh17Corpus();
  EXPECT_EQ(corpus.sources.size(), 2u);
  EXPECT_GE(corpus.documents.size(), 10u);
  std::set<int64_t> stories;
  for (const Document& doc : corpus.documents) {
    EXPECT_LT(doc.source, corpus.sources.size());
    EXPECT_FALSE(doc.title.empty());
    EXPECT_FALSE(doc.paragraphs.empty());
    EXPECT_FALSE(doc.url.empty());
    EXPECT_GE(doc.truth_story, 0);
    EXPECT_FALSE(doc.event_type.empty());
    stories.insert(doc.truth_story);
    EXPECT_GE(doc.timestamp, MakeTimestamp(2014, 7, 1));
    EXPECT_LE(doc.timestamp, MakeTimestamp(2014, 12, 1));
  }
  EXPECT_GE(stories.size(), 4u);  // Crash, inquiry, antitrust, doctors.
}

TEST(Mh17Test, GazetteerCoversKeyEntities) {
  Mh17Corpus corpus = MakeMh17Corpus();
  text::Vocabulary vocab;
  text::Gazetteer gazetteer(&vocab);
  PopulateMh17Gazetteer(corpus, &gazetteer);
  auto mentions = gazetteer.FindMentions(text::Tokenize(
      "The U.S. said the Malaysia Airlines jet crashed over Ukraine"));
  // U.S. alias -> United States, Malaysia Airlines, Ukraine.
  EXPECT_EQ(mentions.size(), 3u);
}

TEST(Mh17Test, BothSourcesCoverTheCrashStory) {
  Mh17Corpus corpus = MakeMh17Corpus();
  std::set<SourceId> crash_sources;
  for (const Document& doc : corpus.documents) {
    if (doc.truth_story == 0) crash_sources.insert(doc.source);
  }
  EXPECT_EQ(crash_sources.size(), 2u);
}

}  // namespace
}  // namespace storypivot::datagen
