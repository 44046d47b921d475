#include <gtest/gtest.h>

#include "viz/json_export.h"

namespace storypivot::viz {
namespace {

class JsonFixture : public ::testing::Test {
 protected:
  JsonFixture() {
    nyt_ = engine_.RegisterSource("New York Times");
    wsj_ = engine_.RegisterSource("W\"S\"J");  // Quote-bearing name.
    text::TermId ua = engine_.entity_vocabulary()->Intern("Ukraine");
    text::TermId crash = engine_.keyword_vocabulary()->Intern("crash");
    auto add = [&](SourceId src, Timestamp ts) {
      Snippet s;
      s.source = src;
      s.timestamp = ts;
      s.event_type = "Accident";
      s.description = "Plane \"crash\"\nnear Donetsk";
      s.document_url = "http://doc";
      s.entities = text::TermVector::FromEntries({{ua, 1.0}});
      s.keywords = text::TermVector::FromEntries({{crash, 2.0}});
      SP_CHECK_OK(engine_.AddSnippet(std::move(s)));
    };
    add(nyt_, MakeTimestamp(2014, 7, 17));
    add(wsj_, MakeTimestamp(2014, 7, 17, 6));
    engine_.Align();
  }

  StoryPivotEngine engine_;
  SourceId nyt_ = 0, wsj_ = 0;
};

TEST(JsonQuoteTest, EscapesSpecials) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(JsonQuote(std::string_view("a\x01z", 3)), "\"a\\u0001z\"");
}

TEST_F(JsonFixture, EngineExportIsBalancedAndComplete) {
  std::string json = ExportEngineJson(engine_);
  // Structural sanity: balanced braces/brackets, no raw control chars.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      EXPECT_GE(static_cast<unsigned char>(c), 0x20);
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  EXPECT_NE(json.find("\"sources\":["), std::string::npos);
  EXPECT_NE(json.find("\"stories\":["), std::string::npos);
  EXPECT_NE(json.find("\"integrated\":["), std::string::npos);
  EXPECT_NE(json.find("New York Times"), std::string::npos);
  EXPECT_NE(json.find("W\\\"S\\\"J"), std::string::npos);
  EXPECT_NE(json.find("Ukraine"), std::string::npos);
}

TEST_F(JsonFixture, SnippetExportCarriesAllFields) {
  const Snippet* snippet = engine_.store().Find(0);
  ASSERT_NE(snippet, nullptr);
  StoryQuery query(&engine_);
  std::string json = ExportSnippetJson(query, *snippet);
  EXPECT_NE(json.find("\"type\":\"Accident\""), std::string::npos);
  EXPECT_NE(json.find("\\\"crash\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"entities\":[\"Ukraine\"]"), std::string::npos);
  EXPECT_NE(json.find("\"keywords\":[\"crash\"]"), std::string::npos);
}

TEST_F(JsonFixture, StoryExportHasTermCounts) {
  StoryQuery query(&engine_);
  const StorySet* partition = engine_.partition(nyt_);
  ASSERT_EQ(partition->stories().size(), 1u);
  std::string json = ExportStoryJson(
      query, partition->stories().begin()->second.read(),
      /*integrated=*/false);
  EXPECT_NE(json.find("\"term\":\"Ukraine\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":"), std::string::npos);
  EXPECT_NE(json.find("\"integrated\":false"), std::string::npos);
}

TEST_F(JsonFixture, ExportIsDeterministic) {
  EXPECT_EQ(ExportEngineJson(engine_), ExportEngineJson(engine_));
}

}  // namespace
}  // namespace storypivot::viz
