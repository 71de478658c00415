#include "util/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace otif {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 6000; ++i) {
    ++counts[rng.UniformInt(6u)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.08);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child stream must not simply mirror the parent.
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.NextUint64() != child.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, ReseedingReproducesStream) {
  Rng rng(37);
  std::vector<uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng.NextUint64());
  rng.Seed(37);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.NextUint64(), first[i]);
}

}  // namespace
}  // namespace otif
