// Equivalence tests for the frame-batched pipeline driver: varying
// PipelineConfig::frame_batch changes how many frames each model invocation
// sees (and how the detector's per-invocation overhead amortizes), but must
// not change any pipeline output — tracks or detections.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "models/detector.h"
#include "sim/dataset.h"
#include "sim/raster.h"

namespace otif::core {
namespace {

sim::Clip MakeClip(int frames = 120) {
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  return sim::SimulateClip(spec, sim::ClipSeed(spec, 1, 0), frames);
}

std::unique_ptr<TrainedModels> MakeTrained(const sim::Clip& clip) {
  auto trained = std::make_unique<TrainedModels>();
  const auto resolutions = models::StandardProxyResolutions();
  auto proxy = std::make_unique<models::ProxyModel>(resolutions[0], 1234);
  models::SimulatedDetector detector(models::ArchByName(
      models::StandardDetectorArchs(), "yolov3"));
  sim::Rasterizer raster(&clip);
  int next_frame = 0;
  auto sampler = [&]() {
    const int f = next_frame;
    next_frame = (next_frame + 7) % clip.num_frames();
    models::ProxySample s;
    s.frame = raster.Render(f, proxy->resolution().raster_w(),
                            proxy->resolution().raster_h());
    s.labels = proxy->MakeLabels(
        models::FilterByConfidence(detector.Detect(clip, f, 1.0), 0.4),
        clip.spec().width, clip.spec().height);
    return s;
  };
  models::TrainProxyModel(proxy.get(), sampler, 24);
  trained->proxies.push_back(std::move(proxy));
  trained->tracker_net = std::make_unique<models::TrackerNet>(99);
  trained->window_sizes = {WindowSize{64, 64}, WindowSize{128, 96},
                           WindowSize{224, 160}};
  return trained;
}

void ExpectSameOutputs(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.detections_kept, b.detections_kept);
  ASSERT_EQ(a.tracks.size(), b.tracks.size());
  for (size_t t = 0; t < a.tracks.size(); ++t) {
    EXPECT_EQ(a.tracks[t].id, b.tracks[t].id);
    EXPECT_EQ(a.tracks[t].cls, b.tracks[t].cls);
    ASSERT_EQ(a.tracks[t].detections.size(), b.tracks[t].detections.size());
    for (size_t d = 0; d < a.tracks[t].detections.size(); ++d) {
      const track::Detection& da = a.tracks[t].detections[d];
      const track::Detection& db = b.tracks[t].detections[d];
      EXPECT_EQ(da.frame, db.frame);
      EXPECT_EQ(da.box.cx, db.box.cx);
      EXPECT_EQ(da.box.cy, db.box.cy);
      EXPECT_EQ(da.box.w, db.box.w);
      EXPECT_EQ(da.box.h, db.box.h);
      EXPECT_EQ(da.confidence, db.confidence);
    }
  }
}

void CheckBatchInvariance(PipelineConfig config,
                          const TrainedModels* trained,
                          const sim::Clip& clip) {
  config.frame_batch = 1;
  if (trained != nullptr) trained->proxy_cache.Clear();
  const PipelineResult per_frame = Pipeline(config, trained).Run(clip);
  for (int batch : {4, 32}) {
    config.frame_batch = batch;
    if (trained != nullptr) trained->proxy_cache.Clear();
    const PipelineResult batched = Pipeline(config, trained).Run(clip);
    ExpectSameOutputs(per_frame, batched);
    // Batching can only merge detector invocations, never add them: the
    // detect charge is monotonically non-increasing in the batch size.
    EXPECT_LE(batched.clock.Seconds(models::CostCategory::kDetect),
              per_frame.clock.Seconds(models::CostCategory::kDetect) + 1e-12)
        << "batch " << batch;
  }
}

TEST(PipelineBatchTest, SortNoProxyOutputsInvariantToBatchSize) {
  const sim::Clip clip = MakeClip();
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  CheckBatchInvariance(config, nullptr, clip);
}

TEST(PipelineBatchTest, SortWithProxyOutputsInvariantToBatchSize) {
  const sim::Clip clip = MakeClip();
  const auto trained = MakeTrained(clip);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckBatchInvariance(config, trained.get(), clip);
}

TEST(PipelineBatchTest, RecurrentWithProxyOutputsInvariantToBatchSize) {
  const sim::Clip clip = MakeClip();
  const auto trained = MakeTrained(clip);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckBatchInvariance(config, trained.get(), clip);
}

TEST(PipelineBatchTest, FrameBatchLargerThanSampledFrames) {
  // Gap 32 over 120 frames samples only 4 frames; a frame batch of 64 means
  // the whole clip is one partial group. Outputs must still match the
  // per-frame run, and the single invocation must amortize the detector's
  // per-invocation overhead across all 4 frames.
  const sim::Clip clip = MakeClip();
  PipelineConfig config;
  config.sampling_gap = 32;

  config.frame_batch = 1;
  const PipelineResult per_frame = Pipeline(config, nullptr).Run(clip);
  config.frame_batch = 64;
  const PipelineResult batched = Pipeline(config, nullptr).Run(clip);
  ExpectSameOutputs(per_frame, batched);
  EXPECT_EQ(per_frame.frames_processed, 4);
  const models::DetectorArch arch = models::ArchByName(
      models::StandardDetectorArchs(), "yolov3");
  // 4 solo invocations collapse into 1: 3 overheads saved.
  EXPECT_NEAR(per_frame.clock.Seconds(models::CostCategory::kDetect) -
                  batched.clock.Seconds(models::CostCategory::kDetect),
              3 * arch.sec_per_invocation, 1e-9);
}

TEST(PipelineBatchTest, SamplingGapRaggedTailOutputsInvariantToBatchSize) {
  // Gap 7 does not divide 120 (18 sampled frames), so the final group of
  // each batched run is partial no matter the batch size.
  const sim::Clip clip = MakeClip();
  PipelineConfig config;
  config.sampling_gap = 7;
  CheckBatchInvariance(config, nullptr, clip);
}

TEST(PipelineBatchTest, ProxySkipDetectorFramesInBatchInvariant) {
  // A high proxy threshold rejects most frames, so batched detect calls see
  // ragged groups where many frames carry zero windows (skip_detector) —
  // the windowed charge formula must still match the per-frame run.
  const sim::Clip clip = MakeClip();
  const auto trained = MakeTrained(clip);
  PipelineConfig config;
  config.use_proxy = true;
  config.proxy_threshold = 0.9;
  config.sampling_gap = 2;
  CheckBatchInvariance(config, trained.get(), clip);
}

TEST(PipelineBatchTest, BatchingAmortizesFullFrameInvocationOverhead) {
  const sim::Clip clip = MakeClip(64);
  PipelineConfig config;  // Full-frame detection on every frame.
  config.frame_batch = 1;
  const double solo =
      Pipeline(config, nullptr).Run(clip).clock.Seconds(
          models::CostCategory::kDetect);
  config.frame_batch = 8;
  const double batched =
      Pipeline(config, nullptr).Run(clip).clock.Seconds(
          models::CostCategory::kDetect);
  const models::DetectorArch arch = models::ArchByName(
      models::StandardDetectorArchs(), "yolov3");
  // 64 frames in batches of 8: 56 invocation overheads saved.
  EXPECT_NEAR(solo - batched, 56 * arch.sec_per_invocation, 1e-9);
}

TEST(PipelineBatchTest, FrameBatchValidatedAndInToString) {
  PipelineConfig config;
  EXPECT_NE(config.ToString().find("batch="), std::string::npos);
  config.frame_batch = 0;
  EXPECT_DEATH(Pipeline(config, nullptr), "frame_batch");
}

}  // namespace
}  // namespace otif::core
