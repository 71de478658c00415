#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "core/best_config.h"
#include "query/queries.h"
#include "sim/dataset.h"
#include "track/metrics.h"

namespace otif::core {
namespace {

std::vector<sim::Clip> TestClips(int n = 2, int frames = 150) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < n; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 1, c), frames));
  }
  return clips;
}

AccuracyFn CountAccuracyFn(const std::vector<sim::Clip>* clips) {
  return [clips](const std::vector<std::vector<track::Track>>& per_clip) {
    double sum = 0.0;
    for (size_t c = 0; c < clips->size(); ++c) {
      const int gt = query::GroundTruthVehicleCount((*clips)[c], 10);
      const int est = query::CountVehicleTracks(per_clip[c], 10);
      sum += track::CountAccuracy(est, gt);
    }
    return sum / static_cast<double>(clips->size());
  };
}

TEST(PipelineTest, PlainConfigExtractsTracks) {
  const auto clips = TestClips(1);
  PipelineConfig config;  // Defaults: yolov3 full scale, gap 1, SORT.
  Pipeline pipeline(config, nullptr);
  PipelineResult r = pipeline.Run(clips[0]);
  EXPECT_GT(r.tracks.size(), 0u);
  EXPECT_EQ(r.frames_processed, clips[0].num_frames());
  EXPECT_GT(r.clock.Seconds(models::CostCategory::kDetect), 0.0);
  EXPECT_GT(r.clock.Seconds(models::CostCategory::kDecode), 0.0);
  EXPECT_DOUBLE_EQ(r.clock.Seconds(models::CostCategory::kProxy), 0.0);
}

TEST(PipelineTest, GapReducesFramesAndCost) {
  const auto clips = TestClips(1);
  PipelineConfig slow;
  PipelineConfig fast = slow;
  fast.sampling_gap = 8;
  PipelineResult slow_r = Pipeline(slow, nullptr).Run(clips[0]);
  PipelineResult fast_r = Pipeline(fast, nullptr).Run(clips[0]);
  EXPECT_LT(fast_r.frames_processed, slow_r.frames_processed);
  // Detector work drops ~8x; decode does not (gap 8 is below the GOP size,
  // so reference chains still force decoding every frame).
  EXPECT_LT(fast_r.clock.Seconds(models::CostCategory::kDetect),
            slow_r.clock.Seconds(models::CostCategory::kDetect) / 4);
  EXPECT_LT(fast_r.clock.TotalSeconds(), slow_r.clock.TotalSeconds());
}

TEST(PipelineTest, LowerScaleCutsDetectorCost) {
  const auto clips = TestClips(1);
  PipelineConfig full;
  PipelineConfig small = full;
  small.detector_scale = 0.5;
  const double full_detect =
      Pipeline(full, nullptr).Run(clips[0]).clock.Seconds(
          models::CostCategory::kDetect);
  const double small_detect =
      Pipeline(small, nullptr).Run(clips[0]).clock.Seconds(
          models::CostCategory::kDetect);
  // Pixel cost drops 4x; the per-invocation overhead is resolution-
  // independent, so the ratio sits between 0.25 and 1 for small frames.
  EXPECT_LT(small_detect, full_detect * 0.6);
  EXPECT_GT(small_detect, full_detect * 0.25);
}

TEST(PipelineTest, DecodeCostSaturatesBeyondGop) {
  const auto clips = TestClips(1, 320);
  PipelineConfig config;
  auto decode_at_gap = [&](int gap) {
    config.sampling_gap = gap;
    return Pipeline(config, nullptr).Run(clips[0]).clock.Seconds(
        models::CostCategory::kDecode);
  };
  // Below the GOP size, decode cost is flat (reference chains force
  // decoding every frame); above it, seeking pays off.
  const double every_frame = decode_at_gap(1);
  EXPECT_NEAR(every_frame, decode_at_gap(8), every_frame * 0.05);
  EXPECT_LT(decode_at_gap(32), every_frame * 0.8);
}

TEST(PipelineDeathTest, ProxyWithoutTrainedModelsAborts) {
  PipelineConfig config;
  config.use_proxy = true;
  EXPECT_DEATH(Pipeline(config, nullptr), "Check failed");
}

TEST(EvaluateConfigTest, AggregatesAcrossClips) {
  const auto clips = TestClips(2);
  const AccuracyFn fn = CountAccuracyFn(&clips);
  PipelineConfig config;
  EvalResult r = EvaluateConfig(config, nullptr, clips, fn);
  EXPECT_EQ(r.tracks_per_clip.size(), 2u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.accuracy, 0.3) << "full-rate SORT should count well";
}

TEST(EvaluateConfigTest, EmptyClipListReturnsEmpty) {
  PipelineConfig config;
  const EvalResult r = EvaluateConfig(
      config, nullptr, {},
      [](const std::vector<std::vector<track::Track>>& per_clip) {
        return per_clip.empty() ? 1.0 : 0.0;
      });
  EXPECT_TRUE(r.tracks_per_clip.empty());
  EXPECT_TRUE(r.failed_clips.empty());
  EXPECT_TRUE(r.degraded_clips.empty());
  EXPECT_EQ(r.seconds, 0.0);
  EXPECT_EQ(r.accuracy, 1.0);
}

TEST(SelectBestConfigTest, FindsAccurateSlowConfig) {
  const auto clips = TestClips(2);
  const AccuracyFn fn = CountAccuracyFn(&clips);
  double best_acc = 0.0;
  PipelineConfig best = SelectBestConfig(clips, fn, &best_acc);
  EXPECT_GT(best_acc, 0.5);
  EXPECT_FALSE(best.use_proxy);
  EXPECT_EQ(best.tracker, TrackerKind::kSort);
  // theta_best should not pick an absurdly low resolution.
  EXPECT_GT(best.detector_scale, 0.2);
}

TEST(StandardScalesTest, GeometricLadder) {
  const auto scales = StandardDetectorScales();
  ASSERT_GE(scales.size(), 5u);
  EXPECT_DOUBLE_EQ(scales[0], 1.0);
  for (size_t i = 1; i < scales.size(); ++i) {
    // Pixel count ratio ~0.7 per step.
    const double ratio =
        (scales[i] * scales[i]) / (scales[i - 1] * scales[i - 1]);
    EXPECT_NEAR(ratio, 0.7, 0.01);
  }
}

}  // namespace
}  // namespace otif::core
