#include "track/hungarian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace otif::track {
namespace {

// The solvers' matrix from rows of equal length.
CostMatrix Matrix(const std::vector<std::vector<double>>& rows) {
  CostMatrix m(static_cast<int>(rows.size()),
               rows.empty() ? 0 : static_cast<int>(rows[0].size()), 0.0);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      m(r, c) = rows[static_cast<size_t>(r)][static_cast<size_t>(c)];
    }
  }
  return m;
}

double TotalCost(const std::vector<std::vector<double>>& cost,
                 const std::vector<int>& assignment) {
  double total = 0.0;
  for (size_t r = 0; r < assignment.size(); ++r) {
    if (assignment[r] >= 0) {
      total += cost[r][static_cast<size_t>(assignment[r])];
    }
  }
  return total;
}

TEST(SolveAssignmentTest, EmptyInputs) {
  EXPECT_TRUE(SolveAssignment({}).empty());
  std::vector<std::vector<double>> no_cols = {{}, {}};
  const auto result = SolveAssignment(Matrix(no_cols));
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], -1);
  EXPECT_EQ(result[1], -1);
}

TEST(SolveAssignmentTest, IdentityIsOptimal) {
  std::vector<std::vector<double>> cost = {
      {0.0, 1.0, 1.0}, {1.0, 0.0, 1.0}, {1.0, 1.0, 0.0}};
  const auto result = SolveAssignment(Matrix(cost));
  EXPECT_EQ(result, (std::vector<int>{0, 1, 2}));
}

TEST(SolveAssignmentTest, AntiDiagonal) {
  std::vector<std::vector<double>> cost = {
      {5.0, 1.0}, {1.0, 5.0}};
  const auto result = SolveAssignment(Matrix(cost));
  EXPECT_EQ(result, (std::vector<int>{1, 0}));
}

TEST(SolveAssignmentTest, ClassicExample) {
  // Known optimum: total cost 5 (a->2, b->1, c->0 style).
  std::vector<std::vector<double>> cost = {
      {4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const auto result = SolveAssignment(Matrix(cost));
  EXPECT_DOUBLE_EQ(TotalCost(cost, result), 5.0);
}

TEST(SolveAssignmentTest, RectangularMoreRows) {
  std::vector<std::vector<double>> cost = {{1.0}, {0.1}, {2.0}};
  const auto result = SolveAssignment(Matrix(cost));
  ASSERT_EQ(result.size(), 3u);
  int assigned = 0;
  for (int c : result) {
    if (c >= 0) ++assigned;
  }
  EXPECT_EQ(assigned, 1);
  EXPECT_EQ(result[1], 0);  // Cheapest row gets the only column.
}

TEST(SolveAssignmentTest, RectangularMoreCols) {
  std::vector<std::vector<double>> cost = {{3.0, 0.5, 2.0}};
  const auto result = SolveAssignment(Matrix(cost));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], 1);
}

// Property test: on random square instances, the Hungarian result is never
// worse than 2000 random permutations.
TEST(SolveAssignmentPropertyTest, BeatsRandomPermutations) {
  Rng rng(5150);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    std::vector<std::vector<double>> cost(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (auto& row : cost) {
      for (double& c : row) c = rng.Uniform(0, 10);
    }
    const auto result = SolveAssignment(Matrix(cost));
    const double optimal = TotalCost(cost, result);
    std::vector<int> perm(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    for (int s = 0; s < 2000; ++s) {
      for (int i = n - 1; i > 0; --i) {
        std::swap(perm[static_cast<size_t>(i)],
                  perm[rng.UniformInt(static_cast<uint64_t>(i + 1))]);
      }
      EXPECT_LE(optimal, TotalCost(cost, perm) + 1e-9);
    }
  }
}

// The solver as it was written over rows of vectors, reading a padding
// closure per entry and allocating its row buffers per row: the flat
// solver must make the same choices, ties included.
std::vector<int> ReferenceSolve(const std::vector<std::vector<double>>& cost) {
  const int n_rows = static_cast<int>(cost.size());
  if (n_rows == 0) return {};
  const int n_cols = static_cast<int>(cost[0].size());
  if (n_cols == 0) return std::vector<int>(static_cast<size_t>(n_rows), -1);
  const int n = std::max(n_rows, n_cols);
  double max_abs = 1.0;
  for (const auto& row : cost) {
    for (double c : row) max_abs = std::max(max_abs, std::abs(c));
  }
  const double pad = max_abs * 4 + 1;
  auto at = [&](int r, int c) -> double {
    if (r < n_rows && c < n_cols) {
      return cost[static_cast<size_t>(r)][static_cast<size_t>(c)];
    }
    return pad;
  };
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(static_cast<size_t>(n) + 1, 0.0);
  std::vector<double> v(static_cast<size_t>(n) + 1, 0.0);
  std::vector<int> match_col(static_cast<size_t>(n) + 1, 0);
  std::vector<int> way(static_cast<size_t>(n) + 1, 0);
  for (int i = 1; i <= n; ++i) {
    match_col[0] = i;
    int j0 = 0;
    std::vector<double> minv(static_cast<size_t>(n) + 1, kInf);
    std::vector<char> used(static_cast<size_t>(n) + 1, 0);
    do {
      used[static_cast<size_t>(j0)] = 1;
      const int i0 = match_col[static_cast<size_t>(j0)];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<size_t>(j)]) continue;
        const double cur = at(i0 - 1, j - 1) - u[static_cast<size_t>(i0)] -
                           v[static_cast<size_t>(j)];
        if (cur < minv[static_cast<size_t>(j)]) {
          minv[static_cast<size_t>(j)] = cur;
          way[static_cast<size_t>(j)] = j0;
        }
        if (minv[static_cast<size_t>(j)] < delta) {
          delta = minv[static_cast<size_t>(j)];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[static_cast<size_t>(j)]) {
          u[static_cast<size_t>(match_col[static_cast<size_t>(j)])] += delta;
          v[static_cast<size_t>(j)] -= delta;
        } else {
          minv[static_cast<size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (match_col[static_cast<size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<size_t>(j0)];
      match_col[static_cast<size_t>(j0)] = match_col[static_cast<size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }
  std::vector<int> row_to_col(static_cast<size_t>(n_rows), -1);
  for (int j = 1; j <= n; ++j) {
    const int i = match_col[static_cast<size_t>(j)];
    if (i >= 1 && i <= n_rows && j <= n_cols) {
      row_to_col[static_cast<size_t>(i - 1)] = j - 1;
    }
  }
  return row_to_col;
}

// Random rectangular matrices up to 24 x 24, half of them drawn from five
// values so that ties are everywhere (the trackers' cost of 1.0 for every
// gated-out pair is one).
TEST(SolveAssignmentTest, MatchesReferenceSolverWithTies) {
  Rng rng(4242);
  for (int trial = 0; trial < 3000; ++trial) {
    const int rows = 1 + static_cast<int>(rng.UniformInt(uint64_t{24}));
    const int cols = 1 + static_cast<int>(rng.UniformInt(uint64_t{24}));
    const bool ties = trial % 2 == 0;
    std::vector<std::vector<double>> cost(
        static_cast<size_t>(rows),
        std::vector<double>(static_cast<size_t>(cols)));
    for (auto& row : cost) {
      for (double& c : row) {
        c = ties ? 0.25 * static_cast<double>(rng.UniformInt(uint64_t{5}))
                 : rng.Uniform(-1, 3);
      }
    }
    ASSERT_EQ(SolveAssignment(Matrix(cost)), ReferenceSolve(cost))
        << rows << " x " << cols << ", trial " << trial;
  }
}

TEST(GreedyAssignmentTest, RespectsMaxCost) {
  std::vector<std::vector<double>> cost = {{0.9, 0.2}, {0.3, 0.95}};
  const auto result = GreedyAssignment(Matrix(cost), 0.5);
  EXPECT_EQ(result, (std::vector<int>{1, 0}));
  const auto strict = GreedyAssignment(Matrix(cost), 0.25);
  EXPECT_EQ(strict, (std::vector<int>{1, -1}));
}

TEST(GreedyAssignmentTest, NoDoubleAssignment) {
  // Row 1 would prefer column 0, but row 0 claims it first (lower cost);
  // row 1 falls back to the expensive column 1 which is above max_cost.
  std::vector<std::vector<double>> cost = {{0.1, 0.2}, {0.15, 0.9}};
  const auto result = GreedyAssignment(Matrix(cost), 0.5);
  EXPECT_EQ(result[0], 0);
  EXPECT_EQ(result[1], -1);
}

TEST(GreedyAssignmentTest, SecondRowTakesRemainingColumn) {
  std::vector<std::vector<double>> cost = {{0.1, 0.2}, {0.15, 0.5}};
  const auto result = GreedyAssignment(Matrix(cost), 1.0);
  EXPECT_EQ(result, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace otif::track
