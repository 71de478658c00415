#include "geom/geometry.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace otif::geom {

BBox BBox::FromCorners(double x0, double y0, double x1, double y1) {
  OTIF_CHECK_LE(x0, x1);
  OTIF_CHECK_LE(y0, y1);
  return BBox((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0);
}

double BBox::IntersectionArea(const BBox& o) const {
  const double ix =
      std::min(Right(), o.Right()) - std::max(Left(), o.Left());
  const double iy =
      std::min(Bottom(), o.Bottom()) - std::max(Top(), o.Top());
  if (ix <= 0 || iy <= 0) return 0.0;
  return ix * iy;
}

double BBox::Iou(const BBox& o) const {
  const double inter = IntersectionArea(o);
  const double uni = Area() + o.Area() - inter;
  if (uni <= 0) return 0.0;
  return inter / uni;
}

bool BBox::Contains(const Point& p) const {
  return p.x >= Left() && p.x <= Right() && p.y >= Top() && p.y <= Bottom();
}

bool BBox::Intersects(const BBox& o) const {
  return IntersectionArea(o) > 0.0;
}

BBox BBox::ClippedTo(double width, double height) const {
  const double x0 = std::clamp(Left(), 0.0, width);
  const double x1 = std::clamp(Right(), 0.0, width);
  const double y0 = std::clamp(Top(), 0.0, height);
  const double y1 = std::clamp(Bottom(), 0.0, height);
  return FromCorners(x0, y0, x1, y1);
}

bool Polygon::Contains(const Point& p) const {
  if (empty()) return false;
  bool inside = false;
  const size_t n = vertices_.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[j];
    // Boundary check: point on segment [a, b].
    const double cross =
        (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
    if (std::abs(cross) < 1e-9 &&
        p.x >= std::min(a.x, b.x) - 1e-9 &&
        p.x <= std::max(a.x, b.x) + 1e-9 &&
        p.y >= std::min(a.y, b.y) - 1e-9 &&
        p.y <= std::max(a.y, b.y) + 1e-9) {
      return true;
    }
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_int = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (p.x < x_int) inside = !inside;
    }
  }
  return inside;
}

double PolylineLength(const std::vector<Point>& polyline) {
  double length = 0.0;
  for (size_t i = 1; i < polyline.size(); ++i) {
    length += polyline[i].DistanceTo(polyline[i - 1]);
  }
  return length;
}

std::vector<Point> ResamplePolyline(const std::vector<Point>& polyline,
                                    int n) {
  OTIF_CHECK_GE(n, 2);
  OTIF_CHECK(!polyline.empty());
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(n));
  const double total = PolylineLength(polyline);
  if (total <= 0.0) {
    out.assign(static_cast<size_t>(n), polyline.front());
    return out;
  }
  const double step = total / (n - 1);
  size_t seg = 0;
  double seg_start_arc = 0.0;
  for (int i = 0; i < n; ++i) {
    const double target = std::min(step * i, total);
    // Advance to the segment containing the target arc length.
    while (seg + 1 < polyline.size()) {
      const double seg_len = polyline[seg + 1].DistanceTo(polyline[seg]);
      if (seg_start_arc + seg_len >= target || seg + 2 == polyline.size()) {
        break;
      }
      seg_start_arc += seg_len;
      ++seg;
    }
    if (seg + 1 >= polyline.size()) {
      out.push_back(polyline.back());
      continue;
    }
    const double seg_len = polyline[seg + 1].DistanceTo(polyline[seg]);
    const double frac =
        seg_len > 0 ? std::clamp((target - seg_start_arc) / seg_len, 0.0, 1.0)
                    : 0.0;
    out.push_back(polyline[seg] + (polyline[seg + 1] - polyline[seg]) * frac);
  }
  return out;
}

Point PointAlong(const std::vector<Point>& polyline, double t) {
  OTIF_CHECK(!polyline.empty());
  t = std::clamp(t, 0.0, 1.0);
  const double total = PolylineLength(polyline);
  if (total <= 0.0) return polyline.front();
  const double target = t * total;
  double arc = 0.0;
  for (size_t i = 1; i < polyline.size(); ++i) {
    const double seg_len = polyline[i].DistanceTo(polyline[i - 1]);
    if (arc + seg_len >= target && seg_len > 0) {
      const double frac = (target - arc) / seg_len;
      return polyline[i - 1] + (polyline[i] - polyline[i - 1]) * frac;
    }
    arc += seg_len;
  }
  return polyline.back();
}

double DistanceToPolyline(const Point& p,
                          const std::vector<Point>& polyline) {
  if (polyline.empty()) return std::numeric_limits<double>::infinity();
  if (polyline.size() == 1) return p.DistanceTo(polyline[0]);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 1; i < polyline.size(); ++i) {
    const Point& a = polyline[i - 1];
    const Point& b = polyline[i];
    const Point ab = b - a;
    const double len_sq = ab.Dot(ab);
    double t = 0.0;
    if (len_sq > 0) t = std::clamp((p - a).Dot(ab) / len_sq, 0.0, 1.0);
    best = std::min(best, p.DistanceTo(a + ab * t));
  }
  return best;
}

Point DirectionAlong(const std::vector<Point>& polyline, double t) {
  OTIF_CHECK(!polyline.empty());
  if (polyline.size() < 2) return {0.0, 0.0};
  t = std::clamp(t, 0.0, 1.0);
  const double total = PolylineLength(polyline);
  if (total <= 0.0) return {0.0, 0.0};
  const double target = t * total;
  double arc = 0.0;
  for (size_t i = 1; i < polyline.size(); ++i) {
    const double seg_len = polyline[i].DistanceTo(polyline[i - 1]);
    if ((arc + seg_len >= target || i + 1 == polyline.size()) &&
        seg_len > 0) {
      const Point d = polyline[i] - polyline[i - 1];
      return d * (1.0 / seg_len);
    }
    arc += seg_len;
  }
  return {0.0, 0.0};
}

}  // namespace otif::geom
