#ifndef OTIF_GEOM_GRID_INDEX_H_
#define OTIF_GEOM_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/geometry.h"

namespace otif::geom {

/// Uniform-grid spatial index over 2D points carrying integer payload ids.
/// Used by track refinement (Sec 3.4) to find cluster centers whose paths
/// pass near a query track's endpoints. Cells are `cell_size` pixels square;
/// the index is unbounded (hash map keyed by cell coordinates).
class GridIndex {
 public:
  /// Creates an index with the given cell edge length (> 0).
  explicit GridIndex(double cell_size);

  /// Inserts a point with an application-defined id (ids may repeat; a
  /// cluster center polyline inserts one entry per sample point).
  void Insert(const Point& p, int64_t id);

  /// Returns de-duplicated ids of points whose distance to `center` is
  /// among the smallest, expanding the search ring until at least
  /// `min_results` unique ids are found (or the index is exhausted).
  std::vector<int64_t> QueryNearest(const Point& center,
                                    size_t min_results) const;

  size_t num_points() const { return num_points_; }

 private:
  struct CellKey {
    int64_t cx;
    int64_t cy;
    bool operator==(const CellKey& o) const {
      return cx == o.cx && cy == o.cy;
    }
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& k) const {
      // 64-bit mix of the two cell coordinates.
      uint64_t h = static_cast<uint64_t>(k.cx) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.cy) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Point p;
    int64_t id;
  };

  CellKey KeyFor(const Point& p) const {
    return {static_cast<int64_t>(std::floor(p.x / cell_size_)),
            static_cast<int64_t>(std::floor(p.y / cell_size_))};
  }

  double cell_size_;
  size_t num_points_ = 0;
  // Bounding box of inserted points (valid when num_points_ > 0); bounds
  // the QueryNearest radius expansion.
  double min_x_ = 0.0, max_x_ = 0.0, min_y_ = 0.0, max_y_ = 0.0;
  std::unordered_map<CellKey, std::vector<Entry>, CellKeyHash> cells_;
};

}  // namespace otif::geom

#endif  // OTIF_GEOM_GRID_INDEX_H_
