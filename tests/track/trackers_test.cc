#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "pinned_tracks.h"
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
  SortTracker sort;
  for (int k = 0; k < 8; ++k) {
    const int t = 8 * k;
    sort.ProcessFrame(t, {MakeDet(t, 100 + 2.0 * t, 100, 40, 26)});
  }
  const auto tracks = sort.Finish(2);
  ASSERT_EQ(tracks.size(), 1u) << "track fragmented at reduced rate";
  EXPECT_EQ(tracks[0].detections.size(), 8u);
}

TEST(SortTrackerTest, TracksArePinned) {
  for (const auto& [gap, digest] : {std::pair{1, 0x37a79b10234f16c6ull},
                                    std::pair{4, 0xae45e2d540794939ull}}) {
    const std::vector<FrameDetections> frames = pins::SampledDetections(gap);
    SortTracker sort;
    for (size_t i = 0; i < frames.size(); ++i) {
      sort.ProcessFrame(static_cast<int>(i) * gap, frames[i]);
    }
    const std::vector<Track> tracks = sort.Finish(2);
    EXPECT_EQ(pins::TracksDigest(tracks), digest)
        << "gap " << gap << ", " << tracks.size() << " tracks";
  }
}

// SORT over the Warsaw clip whose recurrent-tracker tracks
// recurrent_tracker_test pins; the two differ at gap 1.
TEST(SortTrackerTest, WarsawClipTracksArePinned) {
  for (const auto& [gap, digest] : {std::pair{1, 0xd9151805e6ba09a1ull},
                                    std::pair{2, 0x3109d5ecd8fabab5ull}}) {
    const std::vector<FrameDetections> frames =
        pins::SampledDetections(pins::WarsawClip(), gap);
    SortTracker sort;
    for (size_t i = 0; i < frames.size(); ++i) {
      sort.ProcessFrame(static_cast<int>(i) * gap, frames[i]);
    }
    const std::vector<Track> tracks = sort.Finish(2);
    EXPECT_EQ(pins::TracksDigest(tracks), digest)
        << "gap " << gap << ", " << tracks.size() << " tracks";
  }
}

TEST(SortTrackerDeathTest, NonMonotonicFrameAborts) {
  SortTracker sort;
  sort.ProcessFrame(5, {});
  EXPECT_DEATH(sort.ProcessFrame(5, {}), "Check failed");
}

TEST(SortTrackerDeathTest, DetectionFromAnotherFrameAborts) {
  SortTracker sort;
  sort.ProcessFrame(5, {MakeDet(5, 100, 100)});
  EXPECT_DEATH(sort.ProcessFrame(6, {MakeDet(7, 100, 100)}), "Check failed");
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

// The pairwise tracker with Miris' options and with CenterTrack's.
TEST(IouTrackerTest, TracksArePinned) {
  IouTracker::Options miris;
  miris.frame_w = pins::Clip().spec().width;
  miris.frame_h = pins::Clip().spec().height;
  miris.max_misses = 2;
  IouTracker::Options centertrack = miris;
  centertrack.max_center_shift_frac = 0.08;
  centertrack.max_misses = 1;
  const struct {
    const char* name;
    IouTracker::Options options;
    int gap;
    uint64_t digest;
  } kPins[] = {
      {"miris", miris, 1, 0x37a79b10234f16c6ull},
      {"miris", miris, 4, 0x1a35072a5c3ee2ffull},
      {"centertrack", centertrack, 1, 0x37a79b10234f16c6ull},
      {"centertrack", centertrack, 4, 0x42bc66ee41bfb1abull},
  };
  for (const auto& pin : kPins) {
    const std::vector<FrameDetections> frames =
        pins::SampledDetections(pin.gap);
    IouTracker tracker(pin.options);
    for (size_t i = 0; i < frames.size(); ++i) {
      tracker.ProcessFrame(static_cast<int>(i) * pin.gap, frames[i]);
    }
    const std::vector<Track> tracks = tracker.Finish(2);
    EXPECT_EQ(pins::TracksDigest(tracks), pin.digest)
        << pin.name << " gap " << pin.gap << ", " << tracks.size()
        << " tracks";
  }
}

TEST(IouTrackerDeathTest, RepeatedFrameAborts) {
  IouTracker tracker(IouTracker::Options{});
  tracker.ProcessFrame(5, {});
  EXPECT_DEATH(tracker.ProcessFrame(5, {}), "Check failed");
}

TEST(IouTrackerDeathTest, DetectionFromAnotherFrameAborts) {
  IouTracker tracker(IouTracker::Options{});
  tracker.ProcessFrame(5, {MakeDet(5, 100, 100)});
  EXPECT_DEATH(tracker.ProcessFrame(6, {MakeDet(7, 100, 100)}),
               "Check failed");
}

}  // namespace
}  // namespace otif::track
