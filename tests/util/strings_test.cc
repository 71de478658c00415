#include "util/strings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace otif {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrSplitTest, SplitsAndKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("caldot1", "cal"));
  EXPECT_FALSE(StartsWith("cal", "caldot1"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  a b \n"), "a b");
  EXPECT_EQ(StripWhitespace("\t\r\n "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(ParseInt64Test, AcceptsWholeDecimalIntegers) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &value));
  EXPECT_EQ(value, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &value));
  EXPECT_EQ(value, std::numeric_limits<int64_t>::min());
}

TEST(ParseInt64Test, RejectsPartialAndOutOfRangeText) {
  for (const char* bad : {"", "4x", "x4", " 4", "4 ", "1e3", "0x10", "1.0",
                          "-", "9223372036854775808",
                          "-9223372036854775809"}) {
    int64_t value = 123;
    EXPECT_FALSE(ParseInt64(bad, &value)) << "\"" << bad << "\"";
    EXPECT_EQ(value, 123) << "\"" << bad << "\"";
  }
}

TEST(ParseDoubleTest, AcceptsFiniteNumbers) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("0.5", &value));
  EXPECT_EQ(value, 0.5);
  EXPECT_TRUE(ParseDouble("-2", &value));
  EXPECT_EQ(value, -2.0);
  EXPECT_TRUE(ParseDouble("1e3", &value));
  EXPECT_EQ(value, 1000.0);
}

TEST(ParseDoubleTest, RejectsNanInfinityAndPartialText) {
  for (const char* bad : {"", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                          "1e400", "0.5x", " 0.5", "0.5 ", "."}) {
    double value = 0.25;
    EXPECT_FALSE(ParseDouble(bad, &value)) << "\"" << bad << "\"";
    EXPECT_EQ(value, 0.25) << "\"" << bad << "\"";
  }
}

}  // namespace
}  // namespace otif
