#ifndef OTIF_TRACK_HUNGARIAN_H_
#define OTIF_TRACK_HUNGARIAN_H_

#include <cstddef>
#include <vector>

namespace otif::track {

/// A rows x cols cost matrix (rows = workers, cols = jobs), row-major in
/// one buffer. Reset reuses the buffer, so a tracker that keeps one matrix
/// allocates nothing per frame once it has seen its largest frame.
class CostMatrix {
 public:
  CostMatrix() = default;
  CostMatrix(int rows, int cols, double fill) { Reset(rows, cols, fill); }

  /// Resizes to rows x cols, every entry `fill`.
  void Reset(int rows, int cols, double fill);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double& operator()(int r, int c) {
    return values_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    return values_[static_cast<size_t>(r) * cols_ + c];
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> values_;
};

/// Solves the rectangular assignment problem: returns for each row the
/// assigned column or -1 when unassigned. Minimizes total cost; rows/columns
/// beyond the square dimension stay unassigned. O(n^3) Jonker-style
/// augmenting-path implementation over one padded square copy of the
/// matrix, with every buffer allocated once per call.
std::vector<int> SolveAssignment(const CostMatrix& cost);

/// Greedy fallback used by some baselines: repeatedly picks the lowest-cost
/// remaining pair while the cost is below `max_cost`.
std::vector<int> GreedyAssignment(const CostMatrix& cost, double max_cost);

}  // namespace otif::track

#endif  // OTIF_TRACK_HUNGARIAN_H_
