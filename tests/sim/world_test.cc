#include "sim/world.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/dataset.h"

namespace otif::sim {
namespace {

TEST(DatasetTest, AllPresetsWellFormed) {
  for (DatasetId id : AllPaperDatasets()) {
    const DatasetSpec spec = MakeDataset(id);
    EXPECT_GT(spec.width, 0);
    EXPECT_GT(spec.height, 0);
    EXPECT_GE(spec.fps, 5);
    EXPECT_LE(spec.fps, 30);
    EXPECT_FALSE(spec.paths.empty());
    for (const SpawnPath& p : spec.paths) {
      EXPECT_GE(p.waypoints.size(), 2u) << spec.name << "/" << p.label;
      EXPECT_GT(p.rate_hz, 0.0);
      EXPECT_GT(p.speed_mean_px, 0.0);
      EXPECT_GT(p.size_mean_px, 0.0);
      EXPECT_FALSE(p.label.empty());
    }
  }
}

TEST(DatasetTest, PaperResolutions) {
  // Caldot cameras are 720x480, others 1280x720 (paper Sec 4).
  EXPECT_EQ(MakeDataset(DatasetId::kCaldot1).width, 720);
  EXPECT_EQ(MakeDataset(DatasetId::kCaldot2).height, 480);
  EXPECT_EQ(MakeDataset(DatasetId::kTokyo).width, 1280);
  EXPECT_EQ(MakeDataset(DatasetId::kUav).fps, 5);
  EXPECT_EQ(MakeDataset(DatasetId::kAmsterdam).fps, 30);
  EXPECT_EQ(MakeDataset(DatasetId::kJackson).fps, 30);
}

TEST(DatasetTest, TokyoHasTenTurningMovements) {
  const DatasetSpec spec = MakeDataset(DatasetId::kTokyo);
  std::set<std::string> labels;
  for (const SpawnPath& p : spec.paths) labels.insert(p.label);
  EXPECT_EQ(labels.size(), 10u);
}

TEST(DatasetTest, OnlyUavHasMovingCamera) {
  for (DatasetId id : AllPaperDatasets()) {
    const DatasetSpec spec = MakeDataset(id);
    EXPECT_EQ(spec.moving_camera, id == DatasetId::kUav) << spec.name;
  }
}

TEST(SimulateClipTest, DeterministicForSameSeed) {
  const DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  Clip a = SimulateClip(spec, 42, 100);
  Clip b = SimulateClip(spec, 42, 100);
  ASSERT_EQ(a.objects().size(), b.objects().size());
  for (size_t i = 0; i < a.objects().size(); ++i) {
    ASSERT_EQ(a.objects()[i].states.size(), b.objects()[i].states.size());
    for (size_t s = 0; s < a.objects()[i].states.size(); ++s) {
      EXPECT_DOUBLE_EQ(a.objects()[i].states[s].box.cx,
                       b.objects()[i].states[s].box.cx);
    }
  }
}

TEST(SimulateClipTest, DifferentSeedsDiffer) {
  const DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  Clip a = SimulateClip(spec, 1, 200);
  Clip b = SimulateClip(spec, 2, 200);
  // Object counts or first-object geometry should differ.
  bool differs = a.objects().size() != b.objects().size();
  if (!differs && !a.objects().empty()) {
    differs = a.objects()[0].states[0].box.cx !=
              b.objects()[0].states[0].box.cx;
  }
  EXPECT_TRUE(differs);
}

TEST(SimulateClipTest, ObjectsArePresentAndVisible) {
  const DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  Clip clip = SimulateClip(spec, 3, 300);  // 30 seconds at 10 fps.
  EXPECT_GT(clip.objects().size(), 3u);
  // Every recorded state's box intersects the frame.
  for (const GtObject& obj : clip.objects()) {
    EXPECT_FALSE(obj.states.empty());
    for (const ObjectFrameState& st : obj.states) {
      EXPECT_GT(st.box.Right(), 0.0);
      EXPECT_LT(st.box.Left(), spec.width);
      EXPECT_GT(st.box.Bottom(), 0.0);
      EXPECT_LT(st.box.Top(), spec.height);
      EXPECT_GE(st.frame, 0);
      EXPECT_LT(st.frame, 300);
    }
  }
}

TEST(SimulateClipTest, StatesAreFrameContiguousAndMoving) {
  const DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  Clip clip = SimulateClip(spec, 5, 300);
  for (const GtObject& obj : clip.objects()) {
    for (size_t s = 1; s < obj.states.size(); ++s) {
      EXPECT_EQ(obj.states[s].frame, obj.states[s - 1].frame + 1)
          << "object " << obj.id;
    }
    if (obj.states.size() >= 10) {
      const double moved = obj.states.back().box.Center().DistanceTo(
          obj.states.front().box.Center());
      EXPECT_GT(moved, 5.0) << "object " << obj.id << " barely moved";
    }
  }
}

TEST(SimulateClipTest, WarmupYieldsSteadyStateAtFrameZero) {
  const DatasetSpec spec = MakeDataset(DatasetId::kTokyo);
  Clip clip = SimulateClip(spec, 11, 50);
  // A busy junction must already have objects visible in frame 0.
  EXPECT_GT(clip.VisibleAt(0).size(), 0u);
}

TEST(SimulateClipTest, BusyJunctionHasObjectsInEveryFrame) {
  // The paper's premise for the segmentation proxy model: busy scenes have
  // objects in every frame, so classification proxies cannot skip frames.
  const DatasetSpec spec = MakeDataset(DatasetId::kTokyo);
  Clip clip = SimulateClip(spec, 13, 200);
  int empty_frames = 0;
  for (int f = 0; f < clip.num_frames(); ++f) {
    if (clip.VisibleAt(f).empty()) ++empty_frames;
  }
  EXPECT_LT(empty_frames, 4);
}

TEST(SimulateClipTest, AmsterdamHasManyCarFreeFrames) {
  // NoScope's premise: a meaningful fraction of frames has zero cars.
  const DatasetSpec spec = MakeDataset(DatasetId::kAmsterdam);
  Clip clip = SimulateClip(spec, 17, 1200);  // 40 s at 30 fps.
  int car_free = 0;
  for (int f = 0; f < clip.num_frames(); ++f) {
    bool has_car = false;
    for (const VisibleObject& vis : clip.VisibleAt(f)) {
      const GtObject& obj = clip.objects()[vis.object_index];
      if (obj.cls != track::ObjectClass::kPedestrian) has_car = true;
    }
    if (!has_car) ++car_free;
  }
  EXPECT_GT(car_free, clip.num_frames() / 5);
}

TEST(SimulateClipTest, GroundTruthDetectionsMatchIndex) {
  const DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  Clip clip = SimulateClip(spec, 19, 100);
  for (int f = 0; f < 100; f += 10) {
    const track::FrameDetections dets = clip.GroundTruthDetections(f);
    EXPECT_EQ(dets.size(), clip.VisibleAt(f).size());
    for (const track::Detection& d : dets) {
      EXPECT_EQ(d.frame, f);
      EXPECT_GE(d.gt_id, 0);
    }
  }
}

TEST(SimulateClipTest, BrakingEpisodesOccur) {
  DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  spec.brake_prob = 0.5;
  Clip clip = SimulateClip(spec, 29, 600);
  int braked = 0;
  for (const GtObject& obj : clip.objects()) {
    if (obj.braked) ++braked;
  }
  EXPECT_GT(braked, 0);
  // At least one braked object should show a pronounced speed drop (>=30%)
  // after its in-clip maximum (some brake outside their visible span).
  int with_drop = 0;
  for (const GtObject& obj : clip.objects()) {
    if (!obj.braked || obj.states.size() < 10) continue;
    double max_speed = 0.0, min_after_max = 1e9;
    for (const ObjectFrameState& st : obj.states) {
      if (st.speed_px_per_sec > max_speed) {
        max_speed = st.speed_px_per_sec;
      } else {
        min_after_max = std::min(min_after_max, st.speed_px_per_sec);
      }
    }
    if (min_after_max < 0.7 * max_speed) ++with_drop;
  }
  EXPECT_GT(with_drop, 0);
}

TEST(SimulateClipTest, UavCameraOffsetsBoundedAndMoving) {
  const DatasetSpec spec = MakeDataset(DatasetId::kUav);
  Clip clip = SimulateClip(spec, 31, 150);  // 30 s at 5 fps.
  double max_offset = 0.0;
  double total_motion = 0.0;
  for (int f = 0; f < clip.num_frames(); ++f) {
    const geom::Point& o = clip.CameraOffset(f);
    max_offset = std::max({max_offset, std::abs(o.x), std::abs(o.y)});
    if (f > 0) {
      total_motion += o.DistanceTo(clip.CameraOffset(f - 1));
    }
  }
  EXPECT_GT(total_motion, 10.0);
  EXPECT_LE(max_offset, spec.camera_drift_max_px * 1.5);
}

TEST(SimulateClipTest, FixedCameraOffsetsAreZero) {
  const DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  Clip clip = SimulateClip(spec, 37, 50);
  for (int f = 0; f < 50; ++f) {
    EXPECT_EQ(clip.CameraOffset(f), geom::Point(0, 0));
  }
}

TEST(ClipSeedTest, DistinctAcrossSplitsAndClips) {
  const DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  std::set<uint64_t> seeds;
  for (int split = 0; split < 3; ++split) {
    for (int c = 0; c < 10; ++c) {
      seeds.insert(ClipSeed(spec, split, c));
    }
  }
  EXPECT_EQ(seeds.size(), 30u);
}

TEST(SimulateClipTest, ArrivalRateRoughlyMatchesSpec) {
  DatasetSpec spec = MakeDataset(DatasetId::kSynthetic);
  // Long clip for a tight estimate: expected arrivals = sum(rate) * sec.
  const int frames = 3000;  // 300 s.
  Clip clip = SimulateClip(spec, 41, frames);
  double expected_rate = 0.0;
  for (const SpawnPath& p : spec.paths) expected_rate += p.rate_hz;
  // Count objects that *entered* during the clip (exclude warmup carryover
  // by counting objects whose first state is after frame 0 era).
  int entered = 0;
  for (const GtObject& obj : clip.objects()) {
    if (obj.states.front().frame > 0) ++entered;
  }
  const double observed_rate = entered / 300.0;
  EXPECT_NEAR(observed_rate, expected_rate, expected_rate * 0.35);
}

}  // namespace
}  // namespace otif::sim
