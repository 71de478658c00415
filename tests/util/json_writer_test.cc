// Tests for the shared streaming JSON writer: document shapes, separators,
// escaping, number formatting, and raw-value splicing.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "util/json_writer.h"

namespace otif {
namespace {

TEST(JsonWriterTest, EmptyContainers) {
  {
    JsonWriter w;
    w.BeginObject().EndObject();
    EXPECT_EQ(std::move(w).TakeString(), "{}");
  }
  {
    JsonWriter w;
    w.BeginArray().EndArray();
    EXPECT_EQ(std::move(w).TakeString(), "[]");
  }
}

TEST(JsonWriterTest, ObjectSeparatorsUseSpaceAfterColonAndComma) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Value(1);
  w.Key("b").Value(2);
  w.EndObject();
  EXPECT_EQ(std::move(w).TakeString(), "{\"a\": 1, \"b\": 2}");
}

TEST(JsonWriterTest, NestedContainers) {
  JsonWriter w;
  w.BeginObject();
  w.Key("xs").BeginArray().Value(1).Value(2).Value(3).EndArray();
  w.Key("o").BeginObject().Key("k").Value("v").EndObject();
  w.EndObject();
  EXPECT_EQ(std::move(w).TakeString(),
            "{\"xs\": [1, 2, 3], \"o\": {\"k\": \"v\"}}");
}

TEST(JsonWriterTest, ScalarTypes) {
  JsonWriter w;
  w.BeginArray();
  w.Value("s").Value(true).Value(false);
  w.Value(int64_t{-5}).Value(uint64_t{18446744073709551615ull});
  w.EndArray();
  EXPECT_EQ(std::move(w).TakeString(),
            "[\"s\", true, false, -5, 18446744073709551615]");
}

TEST(JsonWriterTest, DoubleFormatting) {
  JsonWriter w;
  w.BeginArray();
  w.Value(0.0).Value(1.5).Value(0.125);
  w.Value(std::numeric_limits<double>::infinity());  // Not JSON: null.
  w.Value(std::nan(""));                             // Not JSON: null.
  w.EndArray();
  EXPECT_EQ(std::move(w).TakeString(), "[0, 1.5, 0.125, null, null]");
}

TEST(JsonWriterTest, EscapesControlCharactersQuotesAndBackslashes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("path\\key").Value("line1\nline2\t\"quoted\"\x01");
  w.EndObject();
  EXPECT_EQ(std::move(w).TakeString(),
            "{\"path\\\\key\": \"line1\\nline2\\t\\\"quoted\\\"\\u0001\"}");
}

TEST(JsonWriterTest, TopLevelScalarDocument) {
  JsonWriter w;
  w.Value(42);
  EXPECT_EQ(w.str(), "42");
}

TEST(JsonWriterDeathTest, MisuseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A value in an object without a pending key.
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Value(1);
      },
      "");
  // Closing the wrong container.
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginArray();
        w.EndObject();
      },
      "");
  // A second top-level value.
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.Value(1);
        w.Value(2);
      },
      "");
}

}  // namespace
}  // namespace otif
