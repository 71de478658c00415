#include "geom/geometry.h"

#include <gtest/gtest.h>

namespace otif::geom {
namespace {

TEST(PointTest, Arithmetic) {
  Point a(1, 2), b(3, 5);
  EXPECT_EQ(a + b, Point(4, 7));
  EXPECT_EQ(b - a, Point(2, 3));
  EXPECT_EQ(a * 2.0, Point(2, 4));
  EXPECT_DOUBLE_EQ(a.Dot(b), 13.0);
  EXPECT_DOUBLE_EQ(Point(3, 4).Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0.0);
}

TEST(BBoxTest, CornersAndAccessors) {
  BBox b = BBox::FromCorners(0, 0, 10, 20);
  EXPECT_DOUBLE_EQ(b.cx, 5.0);
  EXPECT_DOUBLE_EQ(b.cy, 10.0);
  EXPECT_DOUBLE_EQ(b.w, 10.0);
  EXPECT_DOUBLE_EQ(b.h, 20.0);
  EXPECT_DOUBLE_EQ(b.Left(), 0.0);
  EXPECT_DOUBLE_EQ(b.Right(), 10.0);
  EXPECT_DOUBLE_EQ(b.Top(), 0.0);
  EXPECT_DOUBLE_EQ(b.Bottom(), 20.0);
  EXPECT_DOUBLE_EQ(b.Area(), 200.0);
}

TEST(BBoxTest, IouIdentityAndDisjoint) {
  BBox a(5, 5, 10, 10);
  EXPECT_DOUBLE_EQ(a.Iou(a), 1.0);
  BBox far(100, 100, 10, 10);
  EXPECT_DOUBLE_EQ(a.Iou(far), 0.0);
  EXPECT_FALSE(a.Intersects(far));
}

TEST(BBoxTest, IouPartialOverlap) {
  BBox a = BBox::FromCorners(0, 0, 10, 10);
  BBox b = BBox::FromCorners(5, 0, 15, 10);
  // Intersection 50, union 150.
  EXPECT_NEAR(a.Iou(b), 50.0 / 150.0, 1e-12);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(BBoxTest, TouchingBoxesHaveZeroIou) {
  BBox a = BBox::FromCorners(0, 0, 10, 10);
  BBox b = BBox::FromCorners(10, 0, 20, 10);
  EXPECT_DOUBLE_EQ(a.Iou(b), 0.0);
  EXPECT_FALSE(a.Intersects(b));
}

TEST(BBoxTest, ContainsPointAndBox) {
  BBox a = BBox::FromCorners(0, 0, 10, 10);
  EXPECT_TRUE(a.Contains(Point(5, 5)));
  EXPECT_TRUE(a.Contains(Point(0, 0)));  // Boundary counts.
  EXPECT_FALSE(a.Contains(Point(11, 5)));
}

TEST(BBoxTest, ShiftAndScale) {
  BBox a(5, 5, 4, 2);
  BBox s = a.Shifted(1, -1);
  EXPECT_DOUBLE_EQ(s.cx, 6.0);
  EXPECT_DOUBLE_EQ(s.cy, 4.0);
}

TEST(BBoxTest, ClipToFrame) {
  BBox a = BBox::FromCorners(-5, -5, 5, 5);
  BBox c = a.ClippedTo(100, 100);
  EXPECT_DOUBLE_EQ(c.Left(), 0.0);
  EXPECT_DOUBLE_EQ(c.Top(), 0.0);
  EXPECT_DOUBLE_EQ(c.Right(), 5.0);
  // Fully outside boxes collapse to zero area.
  BBox outside = BBox::FromCorners(-10, -10, -1, -1);
  EXPECT_DOUBLE_EQ(outside.ClippedTo(100, 100).Area(), 0.0);
}

TEST(PolygonTest, ContainsConvex) {
  Polygon square({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  EXPECT_TRUE(square.Contains(Point(5, 5)));
  EXPECT_FALSE(square.Contains(Point(15, 5)));
  EXPECT_TRUE(square.Contains(Point(0, 5)));  // Boundary.
  EXPECT_TRUE(square.Contains(Point(10, 10)));
}

TEST(PolygonTest, ContainsConcave) {
  // L-shape: notch removed from the top-right.
  Polygon ell({{0, 0}, {10, 0}, {10, 4}, {6, 4}, {6, 10}, {0, 10}});
  EXPECT_TRUE(ell.Contains(Point(2, 8)));
  EXPECT_TRUE(ell.Contains(Point(8, 2)));
  EXPECT_FALSE(ell.Contains(Point(8, 8)));  // In the notch.
}

TEST(PolygonTest, EmptyAndArea) {
  Polygon empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.Contains(Point(0, 0)));
  EXPECT_TRUE(Polygon({{0, 0}, {10, 0}}).empty());
  EXPECT_FALSE(Polygon({{0, 0}, {10, 0}, {10, 10}}).empty());
}

TEST(PolylineTest, LengthBasic) {
  EXPECT_DOUBLE_EQ(PolylineLength({{0, 0}, {3, 4}}), 5.0);
  EXPECT_DOUBLE_EQ(PolylineLength({{0, 0}}), 0.0);
  EXPECT_DOUBLE_EQ(PolylineLength({{0, 0}, {1, 0}, {1, 1}}), 2.0);
}

TEST(PolylineTest, ResampleStraightLine) {
  std::vector<Point> line = {{0, 0}, {10, 0}};
  std::vector<Point> pts = ResamplePolyline(line, 5);
  ASSERT_EQ(pts.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(pts[i].x, 2.5 * i, 1e-9);
    EXPECT_NEAR(pts[i].y, 0.0, 1e-9);
  }
}

TEST(PolylineTest, ResamplePreservesEndpoints) {
  std::vector<Point> poly = {{0, 0}, {4, 0}, {4, 3}, {9, 3}};
  std::vector<Point> pts = ResamplePolyline(poly, 20);
  EXPECT_NEAR(pts.front().DistanceTo(poly.front()), 0.0, 1e-9);
  EXPECT_NEAR(pts.back().DistanceTo(poly.back()), 0.0, 1e-9);
}

TEST(PolylineTest, ResampleEvenSpacing) {
  std::vector<Point> poly = {{0, 0}, {2, 0}, {2, 2}, {5, 2}, {5, 7}};
  std::vector<Point> pts = ResamplePolyline(poly, 13);
  const double total = PolylineLength(poly);
  const double step = total / 12;
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_NEAR(pts[i].DistanceTo(pts[i - 1]), step, step * 0.5)
        << "between samples " << i - 1 << " and " << i;
  }
}

TEST(PolylineTest, ResampleDegenerate) {
  std::vector<Point> dot = {{3, 3}};
  std::vector<Point> pts = ResamplePolyline(dot, 4);
  ASSERT_EQ(pts.size(), 4u);
  for (const Point& p : pts) EXPECT_EQ(p, Point(3, 3));
}

TEST(PolylineTest, PointAlong) {
  std::vector<Point> line = {{0, 0}, {10, 0}};
  EXPECT_NEAR(PointAlong(line, 0.0).x, 0.0, 1e-9);
  EXPECT_NEAR(PointAlong(line, 0.5).x, 5.0, 1e-9);
  EXPECT_NEAR(PointAlong(line, 1.0).x, 10.0, 1e-9);
  EXPECT_NEAR(PointAlong(line, 2.0).x, 10.0, 1e-9);  // Clamped.
}

TEST(PolylineTest, DirectionAlong) {
  std::vector<Point> poly = {{0, 0}, {10, 0}, {10, 10}};
  Point d0 = DirectionAlong(poly, 0.25);
  EXPECT_NEAR(d0.x, 1.0, 1e-9);
  EXPECT_NEAR(d0.y, 0.0, 1e-9);
  Point d1 = DirectionAlong(poly, 0.75);
  EXPECT_NEAR(d1.x, 0.0, 1e-9);
  EXPECT_NEAR(d1.y, 1.0, 1e-9);
  EXPECT_EQ(DirectionAlong({{1, 1}}, 0.5), Point(0, 0));
}

}  // namespace
}  // namespace otif::geom
