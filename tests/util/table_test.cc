#include "util/table.h"

#include <gtest/gtest.h>

namespace otif {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"Dataset", "Runtime"});
  t.AddRow({"Caldot1", "40"});
  t.AddRow({"Amsterdam", "25"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("Dataset"), std::string::npos);
  EXPECT_NE(out.find("Caldot1"), std::string::npos);
  // Every row should align: "Runtime" column starts at the same offset.
  const size_t header_pos = out.find("Runtime");
  const size_t row_pos = out.find("40");
  EXPECT_EQ(header_pos % (out.find('\n') + 1), row_pos % (out.find('\n') + 1));
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTableDeathTest, WrongArityRowAborts) {
  TextTable t({"only"});
  EXPECT_DEATH(t.AddRow({"a", "b"}), "Check failed");
}

}  // namespace
}  // namespace otif
