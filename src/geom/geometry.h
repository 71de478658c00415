#ifndef OTIF_GEOM_GEOMETRY_H_
#define OTIF_GEOM_GEOMETRY_H_

#include <cmath>
#include <vector>

namespace otif::geom {

/// 2D point in frame coordinates (pixels at the dataset's native resolution;
/// x grows right, y grows down).
struct Point {
  double x = 0.0;
  double y = 0.0;

  Point() = default;
  Point(double px, double py) : x(px), y(py) {}

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }

  double Dot(const Point& o) const { return x * o.x + y * o.y; }
  double Norm() const { return std::sqrt(x * x + y * y); }
  double DistanceTo(const Point& o) const { return (*this - o).Norm(); }

  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
};

/// Axis-aligned bounding box, stored as center plus width/height to match the
/// paper's detection format d = (t, x, y, w, h).
struct BBox {
  double cx = 0.0;
  double cy = 0.0;
  double w = 0.0;
  double h = 0.0;

  BBox() = default;
  BBox(double center_x, double center_y, double width, double height)
      : cx(center_x), cy(center_y), w(width), h(height) {}

  /// Builds a box from corner coordinates (x0,y0) top-left, (x1,y1)
  /// bottom-right.
  static BBox FromCorners(double x0, double y0, double x1, double y1);

  double Left() const { return cx - w / 2; }
  double Right() const { return cx + w / 2; }
  double Top() const { return cy - h / 2; }
  double Bottom() const { return cy + h / 2; }
  double Area() const { return w * h; }
  Point Center() const { return {cx, cy}; }

  /// Intersection area with another box (0 when disjoint).
  double IntersectionArea(const BBox& o) const;

  /// Intersection-over-union in [0, 1].
  double Iou(const BBox& o) const;

  /// True when the point lies inside or on the boundary.
  bool Contains(const Point& p) const;

  /// True when the two boxes overlap (positive intersection area).
  bool Intersects(const BBox& o) const;

  /// This box translated by (dx, dy).
  BBox Shifted(double dx, double dy) const { return {cx + dx, cy + dy, w, h}; }

  /// This box clipped to [0,width]x[0,height]; may become empty (w or h 0).
  BBox ClippedTo(double width, double height) const;
};

/// Simple polygon (vertices in order, implicitly closed). Used by frame-level
/// region queries.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices)
      : vertices_(std::move(vertices)) {}

  const std::vector<Point>& vertices() const { return vertices_; }
  bool empty() const { return vertices_.size() < 3; }

  /// Even-odd rule point-in-polygon test; boundary points count as inside.
  bool Contains(const Point& p) const;

  /// Axis-aligned bounding box of the polygon.
  BBox Bounds() const;

 private:
  std::vector<Point> vertices_;
};

/// Length of a polyline (sum of segment lengths).
double PolylineLength(const std::vector<Point>& polyline);

/// Resamples a polyline to exactly `n` points evenly spaced by arc length.
/// This is the P(s) operator in the paper's track distance metric (N=20).
/// Requires n >= 2 and a non-empty polyline; a single-point polyline yields
/// n copies of that point.
std::vector<Point> ResamplePolyline(const std::vector<Point>& polyline, int n);

/// Position along a polyline at arc-length fraction t in [0,1].
Point PointAlong(const std::vector<Point>& polyline, double t);

/// Distance from a point to the nearest point on a polyline (segments, not
/// just vertices). Returns +inf for an empty polyline.
double DistanceToPolyline(const Point& p, const std::vector<Point>& polyline);

/// Unit tangent direction of the polyline at arc-length fraction t; zero
/// vector for degenerate polylines.
Point DirectionAlong(const std::vector<Point>& polyline, double t);

}  // namespace otif::geom

#endif  // OTIF_GEOM_GEOMETRY_H_
