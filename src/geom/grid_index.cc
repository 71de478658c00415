#include "geom/grid_index.h"

#include <algorithm>

#include "util/logging.h"

namespace otif::geom {

GridIndex::GridIndex(double cell_size) : cell_size_(cell_size) {
  OTIF_CHECK_GT(cell_size, 0.0);
}

void GridIndex::Insert(const Point& p, int64_t id) {
  cells_[KeyFor(p)].push_back({p, id});
  if (num_points_ == 0) {
    min_x_ = max_x_ = p.x;
    min_y_ = max_y_ = p.y;
  } else {
    min_x_ = std::min(min_x_, p.x);
    max_x_ = std::max(max_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_y_ = std::max(max_y_, p.y);
  }
  ++num_points_;
}

std::vector<int64_t> GridIndex::QueryNearest(const Point& center,
                                             size_t min_results) const {
  if (num_points_ == 0 || min_results == 0) return {};
  // Expand the radius ring by ring; collect (distance, id) pairs, keeping
  // the nearest entry per id. Once the circle covers the data's bounding
  // box, no further expansion can add results.
  const double reach =
      std::max({center.DistanceTo({min_x_, min_y_}),
                center.DistanceTo({min_x_, max_y_}),
                center.DistanceTo({max_x_, min_y_}),
                center.DistanceTo({max_x_, max_y_})});
  double radius = cell_size_;
  for (;;) {
    const bool covers_all = radius >= reach;
    std::unordered_map<int64_t, double> best;
    if (covers_all) {
      // Scan stored cells directly instead of the (huge) cell range.
      for (const auto& [key, entries] : cells_) {
        for (const Entry& e : entries) {
          const double d = e.p.DistanceTo(center);
          auto [pos, inserted] = best.try_emplace(e.id, d);
          if (!inserted && d < pos->second) pos->second = d;
        }
      }
    } else {
      const int64_t cx0 =
          static_cast<int64_t>(std::floor((center.x - radius) / cell_size_));
      const int64_t cx1 =
          static_cast<int64_t>(std::floor((center.x + radius) / cell_size_));
      const int64_t cy0 =
          static_cast<int64_t>(std::floor((center.y - radius) / cell_size_));
      const int64_t cy1 =
          static_cast<int64_t>(std::floor((center.y + radius) / cell_size_));
      for (int64_t cx = cx0; cx <= cx1; ++cx) {
        for (int64_t cy = cy0; cy <= cy1; ++cy) {
          auto it = cells_.find(CellKey{cx, cy});
          if (it == cells_.end()) continue;
          for (const Entry& e : it->second) {
            const double d = e.p.DistanceTo(center);
            if (d > radius) continue;
            auto [pos, inserted] = best.try_emplace(e.id, d);
            if (!inserted && d < pos->second) pos->second = d;
          }
        }
      }
    }
    if (best.size() >= min_results || covers_all) {
      std::vector<std::pair<double, int64_t>> ranked;
      ranked.reserve(best.size());
      for (const auto& [id, d] : best) ranked.emplace_back(d, id);
      std::sort(ranked.begin(), ranked.end());
      std::vector<int64_t> out;
      out.reserve(ranked.size());
      for (const auto& [d, id] : ranked) out.push_back(id);
      return out;
    }
    radius *= 2.0;
  }
}

}  // namespace otif::geom
