#include "track/recurrent_tracker.h"

#include <gtest/gtest.h>

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

// Trains a small net on linear-motion matching so the runtime tests run
// against a functional scorer. Shared across tests via a static.
models::TrackerNet* TrainedNet() {
  static models::TrackerNet* net = [] {
    auto* n = new models::TrackerNet(99);
    Rng rng(7);
    const double fw = 320, fh = 240, fps = 10.0;
    for (int step = 0; step < 600; ++step) {
      const int gap = 1 << rng.UniformInt(uint64_t{4});
      const double vx = rng.Uniform(-4, 4), vy = rng.Uniform(-3, 3);
      double cx = rng.Uniform(60, 260), cy = rng.Uniform(50, 190);
      models::TrackerNet::Example ex;
      Detection last;
      int frame = 0;
      for (int i = 0; i < 3; ++i) {
        Detection d = MakeDet(frame, cx, cy);
        ex.prefix_features.push_back(models::TrackerNet::DetFeature(
            d, gap, fps, fw, fh, 0.5, 0.1));
        last = d;
        cx += vx * gap;
        cy += vy * gap;
        frame += gap;
      }
      Detection truth = MakeDet(frame, cx, cy);
      Detection decoy = MakeDet(frame, rng.Uniform(20, 300),
                                rng.Uniform(20, 220));
      ex.positive_index = 0;
      for (const Detection& c : {truth, decoy}) {
        ex.candidate_features.push_back(models::TrackerNet::DetFeature(
            c, gap, fps, fw, fh, 0.5, 0.1));
        ex.candidate_pair_features.push_back(
            models::TrackerNet::PairFeature(last, last, c, fps, fw, fh));
      }
      n->TrainStep(ex);
    }
    return n;
  }();
  return net;
}

RecurrentTracker::Options SmallFrameOptions() {
  RecurrentTracker::Options opts;
  opts.frame_w = 320;
  opts.frame_h = 240;
  opts.fps = 10;
  opts.match_threshold = 0.3;
  return opts;
}

TEST(RecurrentTrackerTest, SingleObjectSingleTrack) {
  RecurrentTracker tracker(TrainedNet(), SmallFrameOptions());
  for (int t = 0; t < 10; ++t) {
    tracker.ProcessFrame(t, {MakeDet(t, 50 + 3 * t, 100)});
  }
  const auto tracks = tracker.Finish(2);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].detections.size(), 10u);
}

TEST(RecurrentTrackerTest, ReducedRateKeepsIdentity) {
  RecurrentTracker tracker(TrainedNet(), SmallFrameOptions());
  for (int k = 0; k < 8; ++k) {
    const int t = 8 * k;
    tracker.ProcessFrame(t, {MakeDet(t, 30 + 3.0 * t, 100)});
  }
  const auto tracks = tracker.Finish(2);
  ASSERT_EQ(tracks.size(), 1u) << "fragmented at gap 8";
  EXPECT_EQ(tracks[0].detections.size(), 8u);
}

TEST(RecurrentTrackerTest, TwoObjectsTwoTracks) {
  RecurrentTracker tracker(TrainedNet(), SmallFrameOptions());
  for (int k = 0; k < 6; ++k) {
    const int t = 4 * k;
    tracker.ProcessFrame(
        t, {MakeDet(t, 30 + 3.0 * t, 60), MakeDet(t, 290 - 3.0 * t, 180)});
  }
  const auto tracks = tracker.Finish(3);
  ASSERT_EQ(tracks.size(), 2u);
  for (const Track& t : tracks) {
    const double y0 = t.detections.front().box.cy;
    for (const Detection& d : t.detections) {
      EXPECT_NEAR(d.box.cy, y0, 15.0) << "identity switch";
    }
  }
}

TEST(RecurrentTrackerTest, PairScoreAccounting) {
  RecurrentTracker tracker(TrainedNet(), SmallFrameOptions());
  tracker.ProcessFrame(0, {MakeDet(0, 100, 100)});
  EXPECT_EQ(tracker.pair_scores_computed(), 0);
  tracker.ProcessFrame(1, {MakeDet(1, 103, 100), MakeDet(1, 200, 200)});
  EXPECT_EQ(tracker.pair_scores_computed(), 2);  // 1 track x 2 detections.
}

// The distance gate is half the frame diagonal: 200 px in a 320x240 frame.
TEST(RecurrentTrackerTest, DistanceGateSkipsFarPairs) {
  RecurrentTracker tracker(TrainedNet(), SmallFrameOptions());
  tracker.ProcessFrame(0, {MakeDet(0, 20, 120)});
  // The track's continuation, a detection 199 px away (inside the gate)
  // and one 201 px away (outside it).
  tracker.ProcessFrame(1, {MakeDet(1, 23, 120), MakeDet(1, 219, 120),
                           MakeDet(1, 221, 120)});
  EXPECT_EQ(tracker.pair_scores_computed(), 2);
  EXPECT_EQ(tracker.num_active(), 3u);
  const auto tracks = tracker.Finish(1);
  ASSERT_EQ(tracks.size(), 3u);
  ASSERT_EQ(tracks[0].detections.size(), 2u);
  EXPECT_EQ(tracks[0].detections[1].box.cx, 23);
  // The gated-out detection was not matched: it started its own track.
  EXPECT_EQ(tracks[1].detections.size(), 1u);
  EXPECT_EQ(tracks[2].detections.size(), 1u);
  EXPECT_EQ(tracks[2].detections[0].box.cx, 221);
}

// A frame with tracks and detections but no pair inside the gate scores
// nothing and starts a new track per detection, in detection order.
TEST(RecurrentTrackerTest, FrameWithOnlyGatedOutPairsStartsNewTracks) {
  RecurrentTracker tracker(TrainedNet(), SmallFrameOptions());
  tracker.ProcessFrame(0, {MakeDet(0, 20, 20)});
  tracker.ProcessFrame(1, {MakeDet(1, 300, 220), MakeDet(1, 250, 220)});
  EXPECT_EQ(tracker.pair_scores_computed(), 0);
  EXPECT_EQ(tracker.num_active(), 3u);
  const auto tracks = tracker.Finish(1);
  ASSERT_EQ(tracks.size(), 3u);
  for (const Track& t : tracks) EXPECT_EQ(t.detections.size(), 1u);
  EXPECT_EQ(tracks[1].detections[0].box.cx, 300);
  EXPECT_EQ(tracks[2].detections[0].box.cx, 250);
}

TEST(RecurrentTrackerTest, FinishResetsState) {
  RecurrentTracker tracker(TrainedNet(), SmallFrameOptions());
  tracker.ProcessFrame(0, {MakeDet(0, 100, 100)});
  tracker.ProcessFrame(1, {MakeDet(1, 103, 100)});
  EXPECT_EQ(tracker.Finish(1).size(), 1u);
  EXPECT_EQ(tracker.num_active(), 0u);
  // Frame counter reset: processing frame 0 again is legal.
  tracker.ProcessFrame(0, {MakeDet(0, 50, 50)});
  EXPECT_EQ(tracker.Finish(1).size(), 1u);
}

}  // namespace
}  // namespace otif::track
