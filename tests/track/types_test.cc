#include "track/types.h"

#include <gtest/gtest.h>

namespace otif::track {
namespace {

Track MakeTrack(std::vector<std::pair<int, geom::BBox>> dets) {
  Track t;
  t.id = 1;
  for (auto& [frame, box] : dets) {
    Detection d;
    d.frame = frame;
    d.box = box;
    t.detections.push_back(d);
  }
  return t;
}

TEST(TrackTest, FrameAccessors) {
  Track t = MakeTrack({{3, {0, 0, 2, 2}}, {7, {10, 0, 2, 2}}});
  EXPECT_EQ(t.StartFrame(), 3);
  EXPECT_EQ(t.EndFrame(), 7);
  EXPECT_EQ(t.DurationFrames(), 5);
  EXPECT_FALSE(t.empty());
}

TEST(TrackTest, EmptyTrackDuration) {
  Track t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.DurationFrames(), 0);
}

TEST(TrackTest, CenterPolyline) {
  Track t = MakeTrack({{0, {0, 0, 2, 2}}, {1, {10, 5, 2, 2}}});
  const auto pts = t.CenterPolyline();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0], geom::Point(0, 0));
  EXPECT_EQ(pts[1], geom::Point(10, 5));
}

TEST(TrackTest, InterpolatedBoxMidpoint) {
  Track t = MakeTrack({{0, {0, 0, 2, 2}}, {10, {10, 20, 4, 6}}});
  geom::BBox mid = t.InterpolatedBoxAt(5);
  EXPECT_DOUBLE_EQ(mid.cx, 5.0);
  EXPECT_DOUBLE_EQ(mid.cy, 10.0);
  EXPECT_DOUBLE_EQ(mid.w, 3.0);
  EXPECT_DOUBLE_EQ(mid.h, 4.0);
}

TEST(TrackTest, InterpolatedBoxClampsOutsideSpan) {
  Track t = MakeTrack({{5, {1, 1, 2, 2}}, {10, {9, 9, 2, 2}}});
  EXPECT_DOUBLE_EQ(t.InterpolatedBoxAt(0).cx, 1.0);
  EXPECT_DOUBLE_EQ(t.InterpolatedBoxAt(99).cx, 9.0);
  EXPECT_DOUBLE_EQ(t.InterpolatedBoxAt(5).cx, 1.0);
  EXPECT_DOUBLE_EQ(t.InterpolatedBoxAt(10).cx, 9.0);
}

TEST(TrackTest, MeanSpeed) {
  // 10 px over 10 frames = 1 px/frame.
  Track t = MakeTrack({{0, {0, 0, 1, 1}}, {10, {10, 0, 1, 1}}});
  EXPECT_DOUBLE_EQ(t.MeanSpeedPxPerFrame(), 1.0);
  Track single = MakeTrack({{0, {0, 0, 1, 1}}});
  EXPECT_DOUBLE_EQ(single.MeanSpeedPxPerFrame(), 0.0);
}

}  // namespace
}  // namespace otif::track
