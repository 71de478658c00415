#ifndef OTIF_CORE_STAGES_H_
#define OTIF_CORE_STAGES_H_

#include <vector>

#include "core/cell_grouping.h"
#include "core/pipeline.h"
#include "models/detector.h"
#include "sim/raster.h"
#include "sim/world.h"
#include "track/recurrent_tracker.h"
#include "track/tracker.h"
#include "track/types.h"
#include "video/image.h"

namespace otif::core {

/// Per-frame blackboard the stages communicate through (paper Fig 2 data
/// flow). Each stage reads what upstream stages wrote and appends its own
/// outputs; nothing else is shared between stages for a frame.
///
/// Ownership rules: a FrameContext is created empty by the pipeline driver
/// for every sampled frame and dropped after the last stage ran. Fields are
/// owned by the context; the writing stage is named per field.
struct FrameContext {
  /// Frame index within the clip (set by the driver).
  int frame = 0;

  // --- Written by ProxyStage ---
  /// True when the proxy module ran on this frame (use_proxy configs).
  bool proxy_ran = false;
  /// Proxy saw an empty frame: the detector can be skipped entirely.
  bool skip_detector = false;
  /// Low-resolution render of the frame (reused by TrackStage for
  /// appearance statistics when available). Pixels come from the shared
  /// mem::BufferPool and are re-rendered in place across batches.
  video::Image low_res_frame;
  bool have_low_res_frame = false;
  /// Native-coordinate detector windows covering positive proxy cells.
  std::vector<geom::BBox> windows;
  /// Detector-resolution sizes of the placed windows (drawn from the fixed
  /// trained set W, scaled). DetectStage's batched path uses these to count
  /// distinct window shapes when amortizing per-invocation overhead.
  std::vector<WindowSize> window_sizes;

  // --- Written by DetectStage ---
  /// Confidence-filtered detections for this frame.
  track::FrameDetections detections;

  /// Re-arms the context for frame `frame`, clearing every per-frame field
  /// while keeping the low_res_frame pixel buffer (and the vectors'
  /// capacity) alive so the driver can reuse one context slot per batch
  /// lane without reallocating.
  void Reset(int new_frame) {
    frame = new_frame;
    proxy_ran = false;
    skip_detector = false;
    have_low_res_frame = false;
    windows.clear();
    window_sizes.clear();
    detections.clear();
  }
};

/// One stage of the per-clip execution pipeline. Stages are constructed per
/// Pipeline::Run call (per-task scope: they hold no state shared across
/// clips or threads) and driven in a fixed order:
///   BeginClip -> ProcessBatch (per batch of sampled frames) -> EndClip.
/// The driver groups consecutive sampled frames into batches of
/// PipelineConfig::frame_batch contexts; ProcessBatch defaults to calling
/// ProcessFrame on each context in frame order, so stages without a batched
/// implementation stay per-frame. Stages communicate through the
/// FrameContext and charge their simulated costs to the PipelineResult
/// clock; no stage reaches into another's internals.
class Stage {
 public:
  virtual ~Stage() = default;

  /// Clip-level setup / one-off charges (e.g. decode cost).
  virtual void BeginClip(PipelineResult* result) { (void)result; }

  /// Per-frame work; reads/writes the shared FrameContext. The default does
  /// nothing (stages whose work is clip-level or batched).
  virtual void ProcessFrame(FrameContext* ctx, PipelineResult* result) {
    (void)ctx;
    (void)result;
  }

  /// Batched work over consecutive sampled frames (frame order). Override
  /// to amortize work across the batch (batched model invocations); the
  /// default is the sequential per-frame loop.
  virtual void ProcessBatch(const std::vector<FrameContext*>& batch,
                            PipelineResult* result) {
    for (FrameContext* ctx : batch) ProcessFrame(ctx, result);
  }

  /// Clip-level teardown: emit tracks, aggregate diagnostics.
  virtual void EndClip(PipelineResult* result) { (void)result; }
};

/// Charges the simulated video-decode cost for the clip (an analytic model:
/// frames must be decoded along GOP reference chains at the detector
/// resolution; paper Sec 4 "Implementation"). Per-frame work is a no-op —
/// sampled frames arrive already decoded.
class DecodeStage : public Stage {
 public:
  DecodeStage(const PipelineConfig& config, const sim::Clip& clip);

  void BeginClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
};

/// Runs the segmentation proxy model: renders the frame at the proxy
/// resolution, scores cells (through the shared ProxyScoreCache), groups
/// positive cells into detector windows, and publishes the windows and their
/// sizes. No-op when the proxy is disabled.
class ProxyStage : public Stage {
 public:
  ProxyStage(const PipelineConfig& config, const TrainedModels* trained,
             const sim::Clip& clip, const models::DetectorArch& arch,
             sim::Rasterizer* raster);

  /// Batched proxy pass: renders every frame, scores all cache-missed
  /// frames in a single batched network invocation, groups each frame's
  /// positive cells into detector windows, and charges the per-frame proxy
  /// cost in frame order.
  void ProcessBatch(const std::vector<FrameContext*>& batch,
                    PipelineResult* result) override;

 private:
  /// Thresholds one frame's cells and groups them into detector windows.
  void ComputeWindows(const nn::Tensor& scores, FrameContext* ctx);

  const PipelineConfig& config_;
  const TrainedModels* trained_;  // Null iff the proxy is disabled.
  const sim::Clip& clip_;
  const models::DetectorArch& arch_;
  sim::Rasterizer* raster_;  // Shared per-run render service, not owned.
  const models::ProxyModel* proxy_ = nullptr;
  /// Window sizes scaled to the detector resolution (W is selected in
  /// native coordinates; windows shrink with the frame).
  std::vector<WindowSize> scaled_sizes_;
  double scaled_w_ = 0.0;
  double scaled_h_ = 0.0;
};

/// Runs the (simulated) object detector: inside the proxy's windows when
/// they exist, over the full frame otherwise; skips entirely on
/// proxy-empty frames. Applies the confidence filter and accumulates the
/// window-coverage diagnostic.
class DetectStage : public Stage {
 public:
  DetectStage(const PipelineConfig& config, const sim::Clip& clip,
              const models::DetectorArch& arch);

  /// Batched detect pass: aggregates the batch's frames into one detector
  /// invocation per group (windowed frames batch per distinct window shape,
  /// full frames share one shape), charging the per-invocation overhead
  /// once per group instead of once per window/frame.
  void ProcessBatch(const std::vector<FrameContext*>& batch,
                    PipelineResult* result) override;

  void EndClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
  models::SimulatedDetector detector_;
  double coverage_sum_ = 0.0;
  int coverage_frames_ = 0;
};

/// Streams detections into the configured tracker (SORT or the recurrent
/// reduced-rate model) and emits the finished tracks at clip end. The
/// recurrent path derives appearance statistics from the low-res render,
/// reusing the proxy's when present.
class TrackStage : public Stage {
 public:
  TrackStage(const PipelineConfig& config, const TrainedModels* trained,
             const sim::Clip& clip, sim::Rasterizer* raster);

  void ProcessFrame(FrameContext* ctx, PipelineResult* result) override;
  void EndClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const sim::Clip& clip_;
  sim::Rasterizer* raster_;  // Shared per-run render service, not owned.
  std::unique_ptr<track::Tracker> sort_tracker_;
  std::unique_ptr<track::RecurrentTracker> recurrent_tracker_;
};

/// Applies cluster-based track start/end refinement to the finished tracks
/// (fixed cameras only); runs entirely at clip end.
class RefineStage : public Stage {
 public:
  RefineStage(const PipelineConfig& config, const TrainedModels* trained,
              const sim::Clip& clip);

  void EndClip(PipelineResult* result) override;

 private:
  const PipelineConfig& config_;
  const TrainedModels* trained_;
  const sim::Clip& clip_;
};

/// Simulated decode seconds for a clip at the configured gap and detector
/// resolution (shared by DecodeStage and Pipeline::DecodeSecondsForClip).
double SimulatedDecodeSeconds(const PipelineConfig& config,
                              const sim::Clip& clip);

}  // namespace otif::core

#endif  // OTIF_CORE_STAGES_H_
