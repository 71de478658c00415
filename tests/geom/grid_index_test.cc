#include "geom/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace otif::geom {
namespace {

TEST(GridIndexTest, EmptyQueries) {
  GridIndex idx(10.0);
  EXPECT_TRUE(idx.QueryNearest({0, 0}, 5).empty());
  EXPECT_EQ(idx.num_points(), 0u);
}

TEST(GridIndexTest, NearestDeduplicatesIds) {
  GridIndex idx(10.0);
  // Same id inserted at several sample points, as done for cluster centers.
  idx.Insert({0, 0}, 7);
  idx.Insert({1, 1}, 7);
  idx.Insert({2, 2}, 7);
  idx.Insert({40, 0}, 8);
  EXPECT_EQ(idx.QueryNearest({0, 0}, 2), (std::vector<int64_t>{7, 8}));
}

TEST(GridIndexTest, NearestExpandsUntilEnough) {
  GridIndex idx(1.0);
  idx.Insert({0, 0}, 1);
  idx.Insert({100, 0}, 2);
  idx.Insert({200, 0}, 3);
  std::vector<int64_t> found = idx.QueryNearest({0, 0}, 2);
  ASSERT_GE(found.size(), 2u);
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(found[1], 2);
}

TEST(GridIndexTest, NearestOrdersByDistance) {
  GridIndex idx(5.0);
  idx.Insert({10, 0}, 10);
  idx.Insert({3, 0}, 3);
  idx.Insert({7, 0}, 7);
  std::vector<int64_t> found = idx.QueryNearest({0, 0}, 3);
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0], 3);
  EXPECT_EQ(found[1], 7);
  EXPECT_EQ(found[2], 10);
}

TEST(GridIndexTest, NegativeCoordinates) {
  // Negative coordinates key to cells by floor, not truncation: the first
  // ring around (-14, -9) must find id 1 in cell (-4, -2), not only id 2.
  GridIndex idx(4.0);
  idx.Insert({-13, -7}, 1);
  idx.Insert({-14, -12}, 2);
  idx.Insert({40, 40}, 3);  // Keeps the first ring from covering all data.
  EXPECT_EQ(idx.QueryNearest({-14, -9}, 1), (std::vector<int64_t>{1, 2}));
}

// Property test: on random point sets (ids repeating across points), the
// grid index returns a prefix of the brute-force ranking of ids by
// distance, (distance, id) ascending, at least `min_results` long when
// that many ids exist.
TEST(GridIndexPropertyTest, MatchesBruteForce) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    GridIndex idx(rng.Uniform(2.0, 30.0));
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{200}));
    const int ids = 1 + static_cast<int>(rng.UniformInt(uint64_t{60}));
    std::vector<std::pair<Point, int64_t>> pts;
    for (int i = 0; i < n; ++i) {
      Point p(rng.Uniform(-100, 100), rng.Uniform(-100, 100));
      const int64_t id = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(ids)));
      pts.emplace_back(p, id);
      idx.Insert(p, id);
    }
    for (int q = 0; q < 10; ++q) {
      const Point center(rng.Uniform(-120, 120), rng.Uniform(-120, 120));
      const size_t min_results = 1 + rng.UniformInt(uint64_t{12});
      std::map<int64_t, double> nearest;
      for (const auto& [p, id] : pts) {
        const double d = p.DistanceTo(center);
        auto [it, inserted] = nearest.try_emplace(id, d);
        if (!inserted) it->second = std::min(it->second, d);
      }
      std::vector<std::pair<double, int64_t>> ranked;
      for (const auto& [id, d] : nearest) ranked.emplace_back(d, id);
      std::sort(ranked.begin(), ranked.end());
      std::vector<int64_t> want;
      for (const auto& [d, id] : ranked) want.push_back(id);

      const std::vector<int64_t> got = idx.QueryNearest(center, min_results);
      EXPECT_GE(got.size(), std::min(min_results, want.size()))
          << "trial=" << trial << " query=" << q;
      ASSERT_LE(got.size(), want.size());
      EXPECT_EQ(got, std::vector<int64_t>(want.begin(),
                                          want.begin() + got.size()))
          << "trial=" << trial << " query=" << q;
    }
  }
}

}  // namespace
}  // namespace otif::geom
