#include "track/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace otif::track {

void CostMatrix::Reset(int rows, int cols, double fill) {
  OTIF_CHECK_GE(rows, 0);
  OTIF_CHECK_GE(cols, 0);
  rows_ = rows;
  cols_ = cols;
  values_.assign(static_cast<size_t>(rows) * cols, fill);
}

std::vector<int> SolveAssignment(const CostMatrix& cost) {
  const int n_rows = cost.rows();
  if (n_rows == 0) return {};
  const int n_cols = cost.cols();
  if (n_cols == 0) return std::vector<int>(static_cast<size_t>(n_rows), -1);

  // Pad to a square matrix with large-but-finite costs so the augmenting
  // path algorithm can always complete; padded matches become -1.
  const int n = std::max(n_rows, n_cols);
  double max_abs = 1.0;
  for (int r = 0; r < n_rows; ++r) {
    for (int c = 0; c < n_cols; ++c) {
      max_abs = std::max(max_abs, std::abs(cost(r, c)));
    }
  }
  const double pad = max_abs * 4 + 1;
  const size_t side = static_cast<size_t>(n);
  std::vector<double> padded(side * side, pad);
  for (int r = 0; r < n_rows; ++r) {
    for (int c = 0; c < n_cols; ++c) {
      padded[static_cast<size_t>(r) * side + static_cast<size_t>(c)] =
          cost(r, c);
    }
  }

  // Jonker-Volgenant style shortest augmenting path (1-indexed internals).
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(side + 1, 0.0);
  std::vector<double> v(side + 1, 0.0);
  std::vector<int> match_col(side + 1, 0);  // col -> row
  std::vector<int> way(side + 1, 0);
  std::vector<double> minv(side + 1);
  std::vector<char> used(side + 1);

  for (int i = 1; i <= n; ++i) {
    match_col[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[static_cast<size_t>(j0)] = 1;
      const int i0 = match_col[static_cast<size_t>(j0)];
      const double* row = padded.data() + static_cast<size_t>(i0 - 1) * side;
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<size_t>(j)]) continue;
        const double cur = row[j - 1] - u[static_cast<size_t>(i0)] -
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

std::vector<int> GreedyAssignment(const CostMatrix& cost, double max_cost) {
  const int n_rows = cost.rows();
  std::vector<int> row_to_col(static_cast<size_t>(n_rows), -1);
  if (n_rows == 0) return row_to_col;
  const int n_cols = cost.cols();
  struct Entry {
    double c;
    int r;
    int col;
  };
  std::vector<Entry> entries;
  for (int r = 0; r < n_rows; ++r) {
    for (int c = 0; c < n_cols; ++c) {
      const double value = cost(r, c);
      if (value <= max_cost) entries.push_back({value, r, c});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.c < b.c; });
  std::vector<char> col_used(static_cast<size_t>(n_cols), 0);
  for (const Entry& e : entries) {
    if (row_to_col[static_cast<size_t>(e.r)] != -1 ||
        col_used[static_cast<size_t>(e.col)]) {
      continue;
    }
    row_to_col[static_cast<size_t>(e.r)] = e.col;
    col_used[static_cast<size_t>(e.col)] = 1;
  }
  return row_to_col;
}

}  // namespace otif::track
