#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "track/iou_tracker.h"
#include "track/kalman.h"
#include "track/sort_tracker.h"
#include "util/rng.h"

namespace otif::track {
namespace {

Detection MakeDet(int frame, double cx, double cy, double w = 30,
                  double h = 20) {
  Detection d;
  d.frame = frame;
  d.box = geom::BBox(cx, cy, w, h);
  return d;
}

TEST(KalmanTest, StaticObjectConverges) {
  KalmanBoxFilter kf(geom::BBox(100, 100, 20, 10));
  for (int i = 0; i < 20; ++i) {
    kf.Predict(1.0);
    kf.Update(geom::BBox(100, 100, 20, 10));
  }
  const geom::BBox state = kf.StateBox();
  EXPECT_NEAR(state.cx, 100.0, 1.0);
  EXPECT_NEAR(state.cy, 100.0, 1.0);
  EXPECT_NEAR(kf.Velocity().Norm(), 0.0, 0.5);
}

TEST(KalmanTest, LearnsConstantVelocity) {
  KalmanBoxFilter kf(geom::BBox(0, 0, 20, 10));
  for (int t = 1; t <= 30; ++t) {
    kf.Predict(1.0);
    kf.Update(geom::BBox(5.0 * t, 2.0 * t, 20, 10));
  }
  // Velocity should approximate (5, 2) px/frame.
  EXPECT_NEAR(kf.Velocity().x, 5.0, 1.5);
  EXPECT_NEAR(kf.Velocity().y, 2.0, 1.0);
  // A 3-frame prediction should land near the extrapolated position.
  kf.Predict(3.0);
  EXPECT_NEAR(kf.StateBox().cx, 5.0 * 33, 8.0);
}

TEST(KalmanTest, PredictionWithGapFrames) {
  KalmanBoxFilter kf(geom::BBox(0, 0, 20, 10));
  // Observations arrive every 4 frames; the filter must still track.
  for (int t = 1; t <= 10; ++t) {
    kf.Predict(4.0);
    kf.Update(geom::BBox(12.0 * t, 0, 20, 10));  // 3 px/frame * 4 frames.
  }
  EXPECT_NEAR(kf.StateBox().cx, 120.0, 10.0);
}

TEST(SortTrackerTest, SingleObjectSingleTrack) {
  SortTracker sort;
  for (int t = 0; t < 10; ++t) {
    sort.ProcessFrame(t, {MakeDet(t, 100 + 5 * t, 100)});
  }
  const auto tracks = sort.Finish(2);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].detections.size(), 10u);
}

TEST(SortTrackerTest, TwoCrossingObjectsKeepIdentities) {
  SortTracker sort;
  // Two objects on parallel, vertically separated lanes moving in opposite
  // directions.
  for (int t = 0; t < 20; ++t) {
    FrameDetections dets = {MakeDet(t, 50 + 10 * t, 80),
                            MakeDet(t, 250 - 10 * t, 160)};
    sort.ProcessFrame(t, dets);
  }
  const auto tracks = sort.Finish(5);
  ASSERT_EQ(tracks.size(), 2u);
  // Each track's vertical position must stay on its lane.
  for (const Track& t : tracks) {
    const double y0 = t.detections.front().box.cy;
    for (const Detection& d : t.detections) {
      EXPECT_NEAR(d.box.cy, y0, 10.0);
    }
  }
}

TEST(SortTrackerTest, MissToleranceBridgesGaps) {
  SortTracker sort;
  // Object missing on frames 4-5 (e.g. detector misses).
  for (int t = 0; t < 12; ++t) {
    FrameDetections dets;
    if (t != 4 && t != 5) dets.push_back(MakeDet(t, 100 + 6 * t, 100));
    sort.ProcessFrame(t, dets);
  }
  const auto tracks = sort.Finish(2);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].detections.size(), 10u);
}

TEST(SortTrackerTest, PrunesSingleDetectionTracks) {
  SortTracker sort;
  sort.ProcessFrame(0, {MakeDet(0, 100, 100)});
  sort.ProcessFrame(1, {});  // Object gone.
  const auto tracks = sort.Finish(2);
  EXPECT_TRUE(tracks.empty());
}

TEST(SortTrackerTest, ReducedRateTracking) {
  // Detections every 8 frames; Kalman prediction spans the gap.
  SortTracker::Options opts;
  opts.iou_threshold = 0.1;
  SortTracker sort(opts);
  for (int k = 0; k < 8; ++k) {
    const int t = 8 * k;
    sort.ProcessFrame(t, {MakeDet(t, 100 + 2.0 * t, 100, 40, 26)});
  }
  const auto tracks = sort.Finish(2);
  ASSERT_EQ(tracks.size(), 1u) << "track fragmented at reduced rate";
  EXPECT_EQ(tracks[0].detections.size(), 8u);
}

TEST(SortTrackerDeathTest, NonMonotonicFrameAborts) {
  SortTracker sort;
  sort.ProcessFrame(5, {});
  EXPECT_DEATH(sort.ProcessFrame(5, {}), "Check failed");
}

TEST(IouTrackerTest, TracksSlowObject) {
  IouTracker::Options opts;
  opts.frame_w = 320;
  opts.frame_h = 240;
  IouTracker tracker(opts);
  for (int t = 0; t < 10; ++t) {
    tracker.ProcessFrame(t, {MakeDet(t, 100 + 3 * t, 100)});
  }
  const auto tracks = tracker.Finish(2);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].detections.size(), 10u);
}

TEST(IouTrackerTest, FragmentsAtLargeGapsUnlikeSort) {
  // At high sampling gaps the boxes no longer overlap and the displacement
  // gate cuts in; the IoU tracker (pairwise matcher) fragments while SORT's
  // motion model holds on. This is the paper's motivation for recurrent
  // tracking over pairwise matching.
  IouTracker::Options opts;
  opts.frame_w = 320;
  opts.frame_h = 240;
  opts.max_center_shift_frac = 0.1;
  IouTracker tracker(opts);
  for (int k = 0; k < 6; ++k) {
    const int t = 16 * k;
    tracker.ProcessFrame(t, {MakeDet(t, 20 + 3.0 * t, 100, 24, 16)});
  }
  const auto tracks = tracker.Finish(1);
  EXPECT_GT(tracks.size(), 1u);
}

}  // namespace
}  // namespace otif::track
