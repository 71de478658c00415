#include "query/queries.h"

#include <gtest/gtest.h>

#include "sim/dataset.h"

namespace otif::query {
namespace {

track::Track MakeTrack(int64_t id, track::ObjectClass cls,
                       std::vector<std::pair<int, geom::Point>> points,
                       double w = 30, double h = 20) {
  track::Track t;
  t.id = id;
  t.cls = cls;
  for (auto& [frame, p] : points) {
    track::Detection d;
    d.frame = frame;
    d.box = geom::BBox(p.x, p.y, w, h);
    d.cls = cls;
    t.detections.push_back(d);
  }
  return t;
}

TEST(CountVehicleTracksTest, FiltersClassAndDuration) {
  std::vector<track::Track> tracks;
  tracks.push_back(MakeTrack(1, track::ObjectClass::kCar,
                             {{0, {0, 0}}, {30, {100, 0}}}));
  tracks.push_back(MakeTrack(2, track::ObjectClass::kPedestrian,
                             {{0, {0, 0}}, {30, {10, 0}}}));
  tracks.push_back(
      MakeTrack(3, track::ObjectClass::kBus, {{0, {0, 0}}, {5, {10, 0}}}));
  EXPECT_EQ(CountVehicleTracks(tracks, 10), 1);
  EXPECT_EQ(CountVehicleTracks(tracks, 3), 2);
}

TEST(GroundTruthVehicleCountTest, MatchesClipObjects) {
  sim::Clip clip = sim::SimulateClip(
      sim::MakeDataset(sim::DatasetId::kSynthetic), 3, 300);
  const int all = GroundTruthVehicleCount(clip, 1);
  const int long_only = GroundTruthVehicleCount(clip, 50);
  EXPECT_GT(all, 0);
  EXPECT_LE(long_only, all);
}

TEST(PathCountsTest, GroundTruthCoversSpawnedObjects) {
  sim::Clip clip = sim::SimulateClip(
      sim::MakeDataset(sim::DatasetId::kSynthetic), 5, 400);
  const auto counts = GroundTruthPathCounts(clip, 0.35);
  ASSERT_EQ(counts.size(), 2u);  // Two synthetic paths.
  int total = 0;
  for (const auto& [label, n] : counts) total += n;
  EXPECT_GT(total, 0);
}

TEST(ClassifyTracksByPathTest, AssignsToNearestPath) {
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  // Track matching "left_right" ({-20,80} -> {340,90}).
  std::vector<track::Track> tracks;
  tracks.push_back(MakeTrack(1, track::ObjectClass::kCar,
                             {{0, {0, 80}}, {50, {160, 85}}, {100, {330, 90}}}));
  const auto counts = ClassifyTracksByPath(tracks, spec, 80.0);
  EXPECT_EQ(counts.at("left_right"), 1);
  EXPECT_EQ(counts.at("top_bottom"), 0);
}

TEST(ClassifyTracksByPathTest, FarTracksUnassigned) {
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  std::vector<track::Track> tracks;
  tracks.push_back(MakeTrack(1, track::ObjectClass::kCar,
                             {{0, {0, 239}}, {50, {320, 239}}}));
  const auto counts = ClassifyTracksByPath(tracks, spec, 30.0);
  int total = 0;
  for (const auto& [label, n] : counts) total += n;
  EXPECT_EQ(total, 0);
}

TEST(PathBreakdownAccuracyTest, PerfectAndPartial) {
  std::map<std::string, int> gt = {{"a", 10}, {"b", 5}};
  EXPECT_DOUBLE_EQ(PathBreakdownAccuracy(gt, gt), 1.0);
  std::map<std::string, int> est = {{"a", 5}, {"b", 5}};
  EXPECT_DOUBLE_EQ(PathBreakdownAccuracy(est, gt), 0.75);
  // Spurious label with zero ground truth scores 0 for that label.
  std::map<std::string, int> extra = {{"a", 10}, {"b", 5}, {"c", 3}};
  EXPECT_NEAR(PathBreakdownAccuracy(extra, gt), 2.0 / 3.0, 1e-9);
}

TEST(PathBreakdownAccuracyTest, SkipsMutuallyEmptyLabels) {
  std::map<std::string, int> gt = {{"a", 10}, {"empty", 0}};
  std::map<std::string, int> est = {{"a", 10}, {"empty", 0}};
  EXPECT_DOUBLE_EQ(PathBreakdownAccuracy(est, gt), 1.0);
}

TEST(HardBrakingTest, DetectsSharpDeceleration) {
  sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  // 10 fps, 0.2 m/px. Speed 50 px/s (10 m/s) for 1 s, then 5 px/s: a drop
  // of 9 m/s over ~1 s.
  std::vector<track::Track> tracks;
  std::vector<std::pair<int, geom::Point>> pts;
  double x = 0;
  for (int f = 0; f <= 10; ++f) {
    pts.push_back({f, {x, 100}});
    x += 5.0;
  }
  for (int f = 11; f <= 20; ++f) {
    pts.push_back({f, {x, 100}});
    x += 0.5;
  }
  tracks.push_back(MakeTrack(1, track::ObjectClass::kCar, pts));
  // Constant-speed control track.
  std::vector<std::pair<int, geom::Point>> steady;
  for (int f = 0; f <= 20; ++f) steady.push_back({f, {5.0 * f, 200}});
  tracks.push_back(MakeTrack(2, track::ObjectClass::kCar, steady));

  const auto braking = FindHardBrakingTracks(tracks, spec, 5.0);
  ASSERT_EQ(braking.size(), 1u);
  EXPECT_EQ(braking[0], 1);
}

TEST(PredicateTest, CountPredicate) {
  CountPredicate p(2);
  EXPECT_FALSE(p.Matches({geom::BBox(0, 0, 1, 1)}));
  EXPECT_TRUE(p.Matches({geom::BBox(0, 0, 1, 1), geom::BBox(5, 5, 1, 1)}));
}

TEST(PredicateTest, RegionPredicate) {
  RegionPredicate p(geom::Polygon({{0, 0}, {100, 0}, {100, 100}, {0, 100}}),
                    1);
  EXPECT_TRUE(p.Matches({geom::BBox(50, 50, 10, 10)}));
  EXPECT_FALSE(p.Matches({geom::BBox(200, 200, 10, 10)}));
}

TEST(PredicateTest, HotSpotPredicate) {
  HotSpotPredicate p(50.0, 3);
  // Three boxes within radius 50 of each other.
  EXPECT_TRUE(p.Matches({geom::BBox(0, 0, 5, 5), geom::BBox(30, 0, 5, 5),
                         geom::BBox(0, 30, 5, 5)}));
  // Three boxes spread far apart.
  EXPECT_FALSE(p.Matches({geom::BBox(0, 0, 5, 5), geom::BBox(200, 0, 5, 5),
                          geom::BBox(0, 200, 5, 5)}));
}

TEST(VehicleBoxesAtTest, InterpolatesWithinSpan) {
  std::vector<track::Track> tracks;
  tracks.push_back(MakeTrack(1, track::ObjectClass::kCar,
                             {{0, {0, 0}}, {10, {100, 0}}}));
  tracks.push_back(MakeTrack(2, track::ObjectClass::kPedestrian,
                             {{0, {50, 50}}, {10, {60, 50}}}));
  const auto at5 = VehicleBoxesAt(tracks, 5);
  ASSERT_EQ(at5.size(), 1u);  // Pedestrian excluded.
  EXPECT_NEAR(at5[0].cx, 50.0, 1e-9);
  EXPECT_TRUE(VehicleBoxesAt(tracks, 20).empty());
}

TEST(ExecuteLimitQueryTest, RespectsLimitAndSeparation) {
  // One long track visible frames 0..100; predicate matches everywhere.
  std::vector<track::Track> tracks;
  tracks.push_back(MakeTrack(1, track::ObjectClass::kCar,
                             {{0, {0, 0}}, {100, {100, 0}}}));
  CountPredicate p(1);
  const auto frames = ExecuteLimitQuery(tracks, p, 101, 3, 25);
  ASSERT_EQ(frames.size(), 3u);
  for (size_t i = 0; i < frames.size(); ++i) {
    for (size_t j = i + 1; j < frames.size(); ++j) {
      EXPECT_GE(std::abs(frames[i] - frames[j]), 25);
    }
  }
}

TEST(ExecuteLimitQueryTest, NoMatchesNoOutput) {
  std::vector<track::Track> tracks;
  tracks.push_back(MakeTrack(1, track::ObjectClass::kCar,
                             {{0, {0, 0}}, {10, {100, 0}}}));
  CountPredicate p(5);
  EXPECT_TRUE(ExecuteLimitQuery(tracks, p, 50, 10, 5).empty());
}

TEST(LimitQueryAccuracyTest, ChecksGroundTruth) {
  const std::vector<sim::Clip> clips = {sim::SimulateClip(
      sim::MakeDataset(sim::DatasetId::kSynthetic), 7, 100)};
  const sim::Clip& clip = clips[0];
  CountPredicate p(1);
  // Find a frame with objects and one without.
  int with = -1, without = -1;
  for (int f = 0; f < clip.num_frames(); ++f) {
    const bool matches = GroundTruthMatches(clip, f, p);
    if (matches && with < 0) with = f;
    if (!matches && without < 0) without = f;
  }
  if (with >= 0 && without >= 0) {
    EXPECT_DOUBLE_EQ(LimitQueryAccuracy(clips, {{0, with}}, p), 1.0);
    EXPECT_DOUBLE_EQ(
        LimitQueryAccuracy(clips, {{0, with}, {0, without}}, p), 0.5);
  }
  EXPECT_DOUBLE_EQ(LimitQueryAccuracy(clips, {}, p), 1.0);
}

}  // namespace
}  // namespace otif::query
