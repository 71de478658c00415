#include "util/stats.h"

#include <gtest/gtest.h>

namespace otif {
namespace {

TEST(StatsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({-5}), -5.0);
}

TEST(StatsTest, WeightedMedianSkewsTowardWeight) {
  // Value 10 carries most of the weight.
  EXPECT_DOUBLE_EQ(WeightedMedian({1, 10, 100}, {1, 10, 1}), 10.0);
  // Uniform weights behave like a lower median.
  EXPECT_DOUBLE_EQ(WeightedMedian({1, 2, 3}, {1, 1, 1}), 2.0);
  // Heavy first element dominates.
  EXPECT_DOUBLE_EQ(WeightedMedian({5, 9}, {10, 1}), 5.0);
}

}  // namespace
}  // namespace otif
