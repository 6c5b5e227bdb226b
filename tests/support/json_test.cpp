#include "support/json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace hicsync::support {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonWriter, PrettyObjectMatchesBenchReportShape) {
  JsonWriter w;
  w.begin_object()
      .key("bench")
      .value("demo")
      .key("n")
      .value(std::int64_t{3})
      .key("ok")
      .value(true)
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"bench\": \"demo\",\n  \"n\": 3,\n  \"ok\": true\n}");
}

TEST(JsonWriter, CompactModeAndNesting) {
  JsonWriter w(/*indent=*/0);
  w.begin_object()
      .key("a")
      .begin_array()
      .value(std::int64_t{1})
      .value(std::int64_t{2})
      .end_array()
      .key("b")
      .begin_object()
      .key("c")
      .value_null()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(), "{\"a\": [1,2],\"b\": {\"c\": null}}");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w(0);
  w.begin_object().key("x").raw("{\"pre\": 1}").end_object();
  EXPECT_EQ(w.str(), "{\"x\": {\"pre\": 1}}");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object()
      .key("name")
      .value("a \"quoted\" name")
      .key("pi")
      .value(3.25)
      .key("list")
      .begin_array()
      .value(false)
      .value_null()
      .end_array()
      .end_object();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(w.str(), &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->string_value, "a \"quoted\" name");
  EXPECT_DOUBLE_EQ(doc.find("pi")->number_value, 3.25);
  ASSERT_TRUE(doc.find("list")->is_array());
  EXPECT_EQ(doc.find("list")->elements.size(), 2u);
  EXPECT_FALSE(doc.find("list")->elements[0].bool_value);
  EXPECT_TRUE(doc.find("list")->elements[1].is_null());
}

TEST(JsonParse, PreservesMemberOrderAndNumbers) {
  JsonValue doc;
  ASSERT_TRUE(parse_json(
      R"({"z": 1, "a": -2.5e2, "m": 9007199254740992})", &doc));
  ASSERT_EQ(doc.members.size(), 3u);
  EXPECT_EQ(doc.members[0].first, "z");
  EXPECT_EQ(doc.members[1].first, "a");
  EXPECT_DOUBLE_EQ(doc.members[1].second.number_value, -250.0);
  EXPECT_DOUBLE_EQ(doc.members[2].second.number_value, 9007199254740992.0);
}

TEST(JsonParse, RejectsMalformedInput) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\": }", &doc, &error));
  EXPECT_FALSE(parse_json("[1, 2", &doc, &error));
  EXPECT_FALSE(parse_json("{\"a\": 1} trailing", &doc, &error));
  EXPECT_FALSE(parse_json("\"unterminated", &doc, &error));
  EXPECT_FALSE(error.empty());
}

std::string nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonParse, AcceptsNestingUpToTheLimit) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(nested(kMaxJsonDepth), &doc, &error)) << error;
}

TEST(JsonParse, RejectsNestingBeyondTheLimitWithAStableError) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json(nested(kMaxJsonDepth + 1), &doc, &error));
  EXPECT_EQ(error.rfind("nesting deeper than 64 at offset", 0), 0u) << error;
  EXPECT_FALSE(parse_json(R"({"a":{"b":)" + nested(kMaxJsonDepth) + "}}",
                          &doc, &error));
  EXPECT_EQ(error.rfind("nesting deeper than", 0), 0u) << error;
}

TEST(JsonParse, MillionOpenBracketsFailWithoutCrashing) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json(std::string(1000000, '['), &doc, &error));
  EXPECT_EQ(error.rfind("nesting deeper than", 0), 0u) << error;
  std::string deep_objects = "{}\n";
  for (int i = 0; i < 1000000; ++i) deep_objects += "{\"a\":";
  std::vector<JsonValue> lines;
  EXPECT_FALSE(parse_jsonl(deep_objects, &lines, &error));
  EXPECT_EQ(error.rfind("line 2: nesting deeper than", 0), 0u) << error;
}

// Every committed JSON and JSON-Lines file must stay inside the limit.
TEST(JsonParse, CommittedFixturesParseWithinTheLimit) {
  namespace fs = std::filesystem;
  const fs::path root = HICSYNC_SOURCE_DIR;
  std::vector<fs::path> files = {root / "BENCHMARK.json"};
  for (const char* dir : {"tests", "hicbench/expected"}) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      const fs::path& p = entry.path();
      if (p.extension() == ".json" || p.extension() == ".jsonl") {
        files.push_back(p);
      }
    }
  }
  ASSERT_GE(files.size(), 10u);
  for (const fs::path& p : files) {
    std::ifstream in(p);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    if (p.extension() == ".jsonl") {
      std::vector<JsonValue> records;
      EXPECT_TRUE(parse_jsonl(text.str(), &records, &error))
          << p << ": " << error;
    } else {
      JsonValue doc;
      EXPECT_TRUE(parse_json(text.str(), &doc, &error)) << p << ": " << error;
    }
  }
}

}  // namespace
}  // namespace hicsync::support
