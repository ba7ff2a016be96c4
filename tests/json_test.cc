// The JSON module: the streaming writer's one output style (separators,
// nesting, escapes, the single double format) and its round trip through
// the parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "src/util/json.h"

namespace grgad {
namespace {

TEST(JsonWriterTest, PlacesSeparatorsAndNests) {
  JsonWriter w;
  w.BeginObject()
      .Key("a").Int(-3)
      .Key("b").BeginArray().Uint(1).Bool(false).Null().EndArray()
      .Key("c").BeginObject().EndObject()
      .Key("d").BeginArray().BeginObject().Key("e").String("f").EndObject()
      .BeginArray().EndArray().EndArray()
      .EndObject();
  EXPECT_EQ(w.str(),
            R"({"a": -3, "b": [1, false, null], "c": {}, )"
            R"("d": [{"e": "f"}, []]})");
}

TEST(JsonWriterTest, TopLevelScalarsAndIntegerExtremes) {
  EXPECT_EQ(JsonWriter().String("x").str(), R"("x")");
  EXPECT_EQ(JsonWriter().Int(INT64_MIN).str(), "-9223372036854775808");
  EXPECT_EQ(JsonWriter().Uint(UINT64_MAX).str(), "18446744073709551615");
}

TEST(JsonWriterTest, DoublesUseSeventeenDigitsOrNull) {
  auto one = [](double v) { return JsonWriter().Double(v).str(); };
  EXPECT_EQ(one(0.1), "0.10000000000000001");
  EXPECT_EQ(one(1.0), "1");
  EXPECT_EQ(one(-2.5e-300), "-2.5e-300");
  EXPECT_EQ(one(std::numeric_limits<double>::max()),
            "1.7976931348623157e+308");
  EXPECT_EQ(one(std::nan("")), "null");
  EXPECT_EQ(one(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(one(-std::numeric_limits<double>::infinity()), "null");
  // A null double still takes its separator.
  JsonWriter w;
  w.BeginArray().Double(1.5).Double(std::nan("")).Double(2.0).EndArray();
  EXPECT_EQ(w.str(), "[1.5, null, 2]");
}

TEST(JsonWriterTest, EscapesKeysAndStrings) {
  JsonWriter w;
  w.BeginObject().Key("k\"ey").String("a\\b\n\t\x01/é").EndObject();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\": \"a\\\\b\\n\\t\\u0001/é\"}");
}

TEST(JsonWriterTest, OutputParsesBackExactly) {
  const double third = 1.0 / 3.0;
  JsonWriter w;
  w.BeginObject()
      .Key("third").Double(third)
      .Key("tiny").Double(5e-324)
      .Key("text").String("line\nbreak \"quoted\"")
      .Key("list").BeginArray().Int(-1).Uint(2).EndArray()
      .EndObject();
  auto parsed = ParseJsonText(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("third")->number, third);
  EXPECT_EQ(root.Find("tiny")->number, 5e-324);
  EXPECT_EQ(root.Find("text")->string, "line\nbreak \"quoted\"");
  ASSERT_EQ(root.Find("list")->array.size(), 2u);
  EXPECT_EQ(root.Find("list")->array[0].number, -1.0);
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  for (const char* text : {"", "{", "[1,]", "{\"a\" 1}", "nul", "1 2",
                           "\"open", "{\"a\": 1e999}", "\"\\q\""}) {
    EXPECT_FALSE(ParseJsonText(text).ok()) << text;
  }
  const std::string deep = std::string(40, '[') + "0" + std::string(40, ']');
  EXPECT_EQ(ParseJsonText(deep).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace grgad
