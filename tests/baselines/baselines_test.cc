#include <gtest/gtest.h>

#include "baselines/baseline.h"
#include "baselines/catdet.h"
#include "baselines/centertrack.h"
#include "baselines/chameleon.h"
#include "baselines/miris.h"
#include "core/best_config.h"
#include "eval/workload.h"
#include "query/queries.h"
#include "track/metrics.h"

namespace otif::baselines {
namespace {

std::vector<sim::Clip> TestClips(int n = 2, int frames = 120) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < n; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 2, c), frames));
  }
  return clips;
}

core::AccuracyFn CountFn(const std::vector<sim::Clip>* clips) {
  return [clips](const std::vector<std::vector<track::Track>>& per_clip) {
    double sum = 0.0;
    for (size_t c = 0; c < clips->size(); ++c) {
      sum += track::CountAccuracy(
          query::CountVehicleTracks(per_clip[c], 10),
          query::GroundTruthVehicleCount((*clips)[c], 10));
    }
    return sum / clips->size();
  };
}

TEST(FastestWithinToleranceTest, PicksFastestInBand) {
  std::vector<MethodPoint> points;
  MethodPoint a;
  a.seconds = 10;
  a.accuracy = 0.95;
  MethodPoint b;
  b.seconds = 4;
  b.accuracy = 0.92;
  MethodPoint c;
  c.seconds = 1;
  c.accuracy = 0.5;
  points = {a, b, c};
  const MethodPoint* pick = FastestWithinTolerance(points, 0.95, 0.05);
  EXPECT_DOUBLE_EQ(pick->seconds, 4.0);
}

TEST(FastestWithinToleranceTest, FallsBackToMostAccurate) {
  std::vector<MethodPoint> points;
  MethodPoint a;
  a.seconds = 10;
  a.accuracy = 0.6;
  MethodPoint b;
  b.seconds = 4;
  b.accuracy = 0.5;
  points = {a, b};
  const MethodPoint* pick = FastestWithinTolerance(points, 0.99, 0.05);
  EXPECT_DOUBLE_EQ(pick->accuracy, 0.6);
}

TEST(MirisTest, GapSweepTradesSpeedForRefinementCost) {
  const auto clips = TestClips(1, 150);
  models::SimClock slow_clock, fast_clock;
  const auto slow = Miris::RunAtGap(clips, 1, 1.0, &slow_clock);
  const auto fast = Miris::RunAtGap(clips, 8, 1.0, &fast_clock);
  EXPECT_EQ(slow.size(), 1u);
  EXPECT_GT(slow[0].size(), 0u);
  EXPECT_GT(fast[0].size(), 0u);
  EXPECT_LT(fast_clock.TotalSeconds(), slow_clock.TotalSeconds());
}

TEST(MirisTest, RefinementExtendsTracksAtHighGap) {
  const auto clips = TestClips(1, 200);
  models::SimClock clock;
  const auto tracks = Miris::RunAtGap(clips, 16, 1.0, &clock);
  // Refinement inserts detections at frames that are not multiples of 16.
  bool has_refined_frame = false;
  for (const auto& t : tracks[0]) {
    for (const auto& d : t.detections) {
      if (d.frame % 16 != 0) has_refined_frame = true;
    }
  }
  EXPECT_TRUE(has_refined_frame);
}

TEST(MirisTest, DecodeChargeMatchesThePipelines) {
  // One decode-cost model: below the GOP size (every frame decoded) and
  // above it (seek from the I-frame), Miris is charged exactly what
  // EvaluateConfig charges a SORT, no-proxy config at the same gap and full
  // scale.
  const auto clips = TestClips(2, 150);
  for (const int gap : {4, 32}) {
    models::SimClock clock;
    Miris::RunAtGap(clips, gap, 1.0, &clock);
    core::PipelineConfig config;
    config.tracker = core::TrackerKind::kSort;
    config.sampling_gap = gap;
    const core::EvalResult r = core::EvaluateConfig(
        config, nullptr, clips,
        [](const std::vector<std::vector<track::Track>>&) { return 0.0; });
    EXPECT_EQ(clock.Seconds(models::CostCategory::kDecode),
              r.clock.Seconds(models::CostCategory::kDecode))
        << "gap " << gap;
  }
}

TEST(MirisTest, EntireRuntimeIsQuerySpecific) {
  const auto clips = TestClips(1, 100);
  const auto valid = clips;
  const core::AccuracyFn fn = CountFn(&clips);
  Miris miris;
  const auto points = miris.Run(valid, clips, fn, fn);
  ASSERT_FALSE(points.empty());
  for (const MethodPoint& p : points) {
    EXPECT_DOUBLE_EQ(p.reusable_seconds, 0.0);
    EXPECT_DOUBLE_EQ(p.query_seconds, p.seconds);
  }
}

TEST(ChameleonTest, ProducesMonotonicallyFasterCandidates) {
  const auto clips = TestClips(2, 100);
  const core::AccuracyFn fn = CountFn(&clips);
  Chameleon chameleon;
  const auto points = chameleon.Run(clips, clips, fn, fn);
  ASSERT_GE(points.size(), 3u);
  // First point is the slowest (naive full configuration).
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].seconds, points[0].seconds * 1.01);
  }
  // Tracks are reusable across queries.
  EXPECT_DOUBLE_EQ(points[0].query_seconds, 0.0);
}

TEST(CaTDetTest, CascadeCheaperThanFullRefresh) {
  const auto clips = TestClips(1, 100);
  const core::AccuracyFn fn = CountFn(&clips);
  CaTDet catdet;
  const auto points = catdet.Run(clips, clips, fn, fn);
  ASSERT_GE(points.size(), 3u);
  // refresh=1 (first point) is the most expensive.
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].seconds, points[0].seconds);
  }
  // Accuracy at refresh=1 should be decent.
  EXPECT_GT(points[0].accuracy, 0.5);
}

TEST(CenterTrackTest, BackboneSlowerThanYolo) {
  const models::DetectorArch ct = CenterTrack::Backbone();
  const models::DetectorArch yolo =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  EXPECT_GT(ct.sec_per_pixel, yolo.sec_per_pixel);
}

TEST(CenterTrackTest, NoGoodSpeedAccuracyTradeoff) {
  const auto clips = TestClips(1, 100);
  const core::AccuracyFn fn = CountFn(&clips);
  CenterTrack ct;
  const auto points = ct.Run(clips, clips, fn, fn);
  ASSERT_FALSE(points.empty());
  // Its fastest point is still detector-bound: more expensive per frame
  // than YOLO-based pipelines would be at the same setting.
  double min_sec = 1e18;
  for (const MethodPoint& p : points) min_sec = std::min(min_sec, p.seconds);
  EXPECT_GT(min_sec, 0.05);
}

}  // namespace
}  // namespace otif::baselines
