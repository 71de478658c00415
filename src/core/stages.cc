#include "core/stages.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "track/metrics.h"
#include "track/sort_tracker.h"
#include "util/logging.h"
#include "util/trace.h"

namespace otif::core {
namespace {

// Frames per group of pictures (one I-frame, then P-frames that each
// reference the previous frame) in the analytic decode-cost model below;
// nothing is actually decoded, frames come from the rasterizer.
constexpr int kGopSize = 16;

// Frames per batched model invocation, recorded at the point the model is
// actually invoked.
telemetry::Histogram* ProxyInvocationFrames() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "proxy.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return h;
}

telemetry::Histogram* DetectInvocationFrames() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "detect.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return h;
}

}  // namespace

double SimulatedDecodeSeconds(const PipelineConfig& config,
                              const sim::Clip& clip) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const int g = config.sampling_gap;
  const int samples = (clip.num_frames() + g - 1) / g;
  // Reference chains: with g below the GOP size every frame must be
  // decoded; above it, seeking to the preceding I-frame decodes an average
  // of GOP/2 + 1 frames per sample.
  const double frames_per_sample =
      g < kGopSize ? static_cast<double>(g)
                   : static_cast<double>(kGopSize) / 2.0 + 1.0;
  const double frames_decoded = samples * frames_per_sample;
  // Frames are decoded at the detector resolution (paper Sec 4).
  const double px_per_frame = static_cast<double>(clip.spec().width) *
                              clip.spec().height * config.detector_scale *
                              config.detector_scale;
  return frames_decoded * (costs.decode_sec_per_frame +
                           px_per_frame * costs.decode_sec_per_pixel);
}

// --- DecodeStage ------------------------------------------------------------

DecodeStage::DecodeStage(const PipelineConfig& config, const sim::Clip& clip)
    : config_(config), clip_(clip) {}

void DecodeStage::BeginClip(PipelineResult* result) {
  result->clock.Charge(models::CostCategory::kDecode,
                       SimulatedDecodeSeconds(config_, clip_));
}

// --- ProxyStage -------------------------------------------------------------

ProxyStage::ProxyStage(const PipelineConfig& config,
                       const TrainedModels* trained, const sim::Clip& clip,
                       const models::DetectorArch& arch,
                       sim::Rasterizer* raster)
    : config_(config),
      trained_(config.use_proxy ? trained : nullptr),
      clip_(clip),
      arch_(arch),
      raster_(raster) {
  if (trained_ == nullptr) return;
  proxy_ = trained_->proxies[static_cast<size_t>(
                                 config_.proxy_resolution_index)]
               .get();
  const double scale = config_.detector_scale;
  for (const WindowSize& s : trained_->window_sizes) {
    scaled_sizes_.push_back(
        WindowSize{static_cast<int>(std::ceil(s.w * scale)),
                   static_cast<int>(std::ceil(s.h * scale))});
  }
  scaled_w_ = clip_.spec().width * scale;
  scaled_h_ = clip_.spec().height * scale;
}

void ProxyStage::ComputeWindows(const nn::Tensor& scores, FrameContext* ctx) {
  ctx->proxy_ran = true;
  const CellGrid grid = CellGrid::FromScores(scores, config_.proxy_threshold);
  if (grid.CountPositive() == 0) {
    // Nothing in the frame: downstream stages skip the detector entirely.
    ctx->skip_detector = true;
    return;
  }
  OTIF_SPAN("proxy/group_cells");
  const GroupingResult grouping =
      GroupCells(grid, scaled_sizes_, arch_, scaled_w_, scaled_h_);
  ctx->window_sizes.reserve(grouping.windows.size());
  for (const PlacedWindow& w : grouping.windows) {
    ctx->window_sizes.push_back(w.size);
  }
  ctx->windows = WindowsToNativeRects(grouping, scaled_w_, scaled_h_,
                                      grid.grid_w, grid.grid_h,
                                      config_.detector_scale);
}

void ProxyStage::ProcessBatch(const std::vector<FrameContext*>& batch,
                              PipelineResult* result) {
  if (proxy_ == nullptr) return;
  // Render every frame up front so the cache misses can be scored in one
  // batched network invocation.
  for (FrameContext* ctx : batch) {
    OTIF_SPAN("proxy/render");
    raster_->RenderInto(ctx->frame, proxy_->resolution().raster_w(),
                        proxy_->resolution().raster_h(), &ctx->low_res_frame);
    ctx->have_low_res_frame = true;
  }

  // Cell scores are cached across tuner evaluations (many thresholds score
  // the same frames); the cache is shared and thread-safe.
  std::vector<nn::Tensor> scores(batch.size());
  std::vector<size_t> missing;
  {
    OTIF_SPAN("proxy/score");
    for (size_t i = 0; i < batch.size(); ++i) {
      const ProxyScoreCache::Key key =
          std::make_tuple(clip_.clip_seed(), batch[i]->frame,
                          config_.proxy_resolution_index);
      if (!trained_->proxy_cache.Lookup(key, &scores[i])) missing.push_back(i);
    }
    if (!missing.empty()) {
      std::vector<const video::Image*> frames;
      frames.reserve(missing.size());
      for (size_t i : missing) frames.push_back(&batch[i]->low_res_frame);
      std::vector<nn::Tensor> fresh = proxy_->ScoreBatch(frames);
      if (telemetry::Enabled()) {
        ProxyInvocationFrames()->Record(static_cast<double>(frames.size()));
      }
      for (size_t m = 0; m < missing.size(); ++m) {
        const size_t i = missing[m];
        const ProxyScoreCache::Key key =
            std::make_tuple(clip_.clip_seed(), batch[i]->frame,
                            config_.proxy_resolution_index);
        scores[i] =
            trained_->proxy_cache.Insert(key, std::move(fresh[m]));
      }
    }
  }

  // One fixed charge per frame, in frame order.
  const models::CostConstants& costs = models::DefaultCostConstants();
  const double frame_seconds =
      costs.proxy_sec_per_frame +
      costs.proxy_sec_per_pixel * proxy_->resolution().world_pixels();
  for (size_t i = 0; i < batch.size(); ++i) {
    ComputeWindows(scores[i], batch[i]);
    result->clock.Charge(models::CostCategory::kProxy, frame_seconds);
  }
}

// --- DetectStage ------------------------------------------------------------

DetectStage::DetectStage(const PipelineConfig& config, const sim::Clip& clip,
                         const models::DetectorArch& arch)
    : config_(config), clip_(clip), detector_(arch) {}

void DetectStage::ProcessBatch(const std::vector<FrameContext*>& batch,
                               PipelineResult* result) {
  const double scale = config_.detector_scale;
  const models::DetectorArch& arch = detector_.arch();

  // Partition the batch: windowed frames and full frames become batched
  // detector invocations; proxy-empty frames skip the detector.
  std::vector<FrameContext*> windowed, full;
  for (FrameContext* ctx : batch) {
    if (ctx->proxy_ran) {
      if (!ctx->skip_detector) windowed.push_back(ctx);
    } else {
      full.push_back(ctx);
    }
  }

  const auto invoke = [&](const std::vector<FrameContext*>& ctxs) {
    std::vector<int> frames;
    frames.reserve(ctxs.size());
    for (const FrameContext* ctx : ctxs) frames.push_back(ctx->frame);
    if (telemetry::Enabled()) {
      DetectInvocationFrames()->Record(static_cast<double>(frames.size()));
    }
    return detector_.DetectBatch(clip_, frames, scale);
  };

  if (!windowed.empty()) {
    const std::vector<track::FrameDetections> dets = invoke(windowed);
    for (size_t i = 0; i < windowed.size(); ++i) {
      windowed[i]->detections =
          models::FilterByWindows(dets[i], windowed[i]->windows);
    }
    // Windows come from the fixed trained size set W, so the batch's
    // windows group into few distinct shapes; each shape batches into one
    // detector invocation (uniform input shape), amortizing the
    // per-invocation overhead that the unbatched path pays per window.
    double pixel_seconds = 0.0;
    std::vector<WindowSize> shapes;
    for (FrameContext* ctx : windowed) {
      for (const WindowSize& s : ctx->window_sizes) {
        pixel_seconds +=
            arch.sec_per_pixel * static_cast<double>(s.w) * s.h;
        if (std::find(shapes.begin(), shapes.end(), s) == shapes.end()) {
          shapes.push_back(s);
        }
      }
    }
    result->clock.Charge(
        models::CostCategory::kDetect,
        pixel_seconds +
            arch.sec_per_invocation * static_cast<double>(shapes.size()));
  }

  if (!full.empty()) {
    std::vector<track::FrameDetections> dets = invoke(full);
    for (size_t i = 0; i < full.size(); ++i) {
      full[i]->detections = std::move(dets[i]);
    }
    // Full frames all share one input shape: one invocation for the batch.
    const double pixel_seconds_per_frame =
        arch.sec_per_pixel * clip_.spec().width * scale *
        clip_.spec().height * scale;
    result->clock.Charge(
        models::CostCategory::kDetect,
        pixel_seconds_per_frame * static_cast<double>(full.size()) +
            arch.sec_per_invocation);
  }

  // Window coverage, the confidence filter, and the kept-detections
  // counter, in frame order.
  for (FrameContext* ctx : batch) {
    if (ctx->proxy_ran) {
      coverage_sum_ +=
          ctx->skip_detector
              ? 1.0
              : track::DetectionCoverage(
                    clip_.GroundTruthDetections(ctx->frame), ctx->windows);
      ++coverage_frames_;
    }
    ctx->detections = models::FilterByConfidence(ctx->detections,
                                                 config_.detector_confidence);
    result->detections_kept += static_cast<int64_t>(ctx->detections.size());
  }
}

void DetectStage::EndClip(PipelineResult* result) {
  result->mean_window_coverage =
      coverage_frames_ > 0 ? coverage_sum_ / coverage_frames_ : 1.0;
}

// --- TrackStage -------------------------------------------------------------

TrackStage::TrackStage(const PipelineConfig& config,
                       const TrainedModels* trained, const sim::Clip& clip,
                       sim::Rasterizer* raster)
    : config_(config), clip_(clip), raster_(raster) {
  const sim::DatasetSpec& spec = clip_.spec();
  if (config_.tracker == TrackerKind::kSort) {
    sort_tracker_ = std::make_unique<track::SortTracker>();
  } else {
    track::RecurrentTracker::Options opts;
    opts.frame_w = spec.width;
    opts.frame_h = spec.height;
    opts.fps = spec.fps;
    recurrent_tracker_ = std::make_unique<track::RecurrentTracker>(
        trained->tracker_net.get(), opts);
  }
}

void TrackStage::ProcessFrame(FrameContext* ctx, PipelineResult* result) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const track::FrameDetections& dets = ctx->detections;

  if (sort_tracker_ != nullptr) {
    result->clock.Charge(
        models::CostCategory::kTrack,
        costs.sort_sec_per_detection * static_cast<double>(dets.size()));
    sort_tracker_->ProcessFrame(ctx->frame, dets);
    return;
  }

  // Appearance statistics from a low-res render (reuse the proxy stage's
  // when available; otherwise render at the smallest standard proxy
  // resolution — charged as tracker time).
  const sim::DatasetSpec& spec = clip_.spec();
  if (!ctx->have_low_res_frame) {
    raster_->RenderInto(ctx->frame, 40, 24, &ctx->low_res_frame);
    ctx->have_low_res_frame = true;
  }
  std::vector<std::pair<double, double>> appearance;
  appearance.reserve(dets.size());
  for (const track::Detection& d : dets) {
    appearance.push_back(models::TrackerNet::AppearanceStats(
        ctx->low_res_frame, d.box, spec.width, spec.height));
  }
  const int64_t pairs_before = recurrent_tracker_->pair_scores_computed();
  recurrent_tracker_->ProcessFrameWithAppearance(ctx->frame, dets, appearance);
  const int64_t pairs =
      recurrent_tracker_->pair_scores_computed() - pairs_before;
  result->clock.Charge(
      models::CostCategory::kTrack,
      costs.track_sec_per_frame +
          costs.track_sec_per_detection *
              static_cast<double>(dets.size() + pairs / 4));
}

void TrackStage::EndClip(PipelineResult* result) {
  track::Tracker* tracker =
      sort_tracker_ != nullptr
          ? static_cast<track::Tracker*>(sort_tracker_.get())
          : recurrent_tracker_.get();
  // Paper Sec 3.4: prune single-detection tracks as likely noise.
  result->tracks = tracker->Finish(2);
}

// --- RefineStage ------------------------------------------------------------

RefineStage::RefineStage(const PipelineConfig& config,
                         const TrainedModels* trained, const sim::Clip& clip)
    : config_(config), trained_(trained), clip_(clip) {}

void RefineStage::EndClip(PipelineResult* result) {
  if (!config_.refine || trained_ == nullptr ||
      trained_->refiner == nullptr || clip_.spec().moving_camera) {
    return;
  }
  const models::CostConstants& costs = models::DefaultCostConstants();
  OTIF_SPAN("refine/refine_all");
  result->tracks = trained_->refiner->RefineAll(result->tracks);
  result->clock.Charge(
      models::CostCategory::kRefine,
      costs.refine_sec_per_track * static_cast<double>(result->tracks.size()));
}

}  // namespace otif::core
