#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "track/recurrent_tracker.h"
#include "track/sort_tracker.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/trace_timeline.h"
#include "video/image.h"

namespace otif::core {
namespace {

/// Telemetry for one pipeline stage: a wall-clock span around the stage's
/// work in Run and a simulated-seconds accumulator fed from the run's
/// SimClock. The five stages map 1:1 onto the first five cost categories,
/// so Figure 6's breakdown and the live instrumentation read the same
/// accumulators.
struct StageTelemetry {
  telemetry::SpanSite* span;
  telemetry::Gauge* sim_seconds;
};

/// Number of execution stages (decode, proxy, detect, track, refine); maps
/// 1:1 onto the first five cost categories.
constexpr int kNumStages = 5;

const std::array<StageTelemetry, kNumStages>& GetStageTelemetry() {
  static const std::array<StageTelemetry, kNumStages> stages = [] {
    std::array<StageTelemetry, kNumStages> out;
    for (int i = 0; i < kNumStages; ++i) {
      const char* name =
          models::CostCategoryName(static_cast<models::CostCategory>(i));
      out[static_cast<size_t>(i)] = {
          telemetry::GetSpan(std::string("stage/") + name),
          telemetry::MetricsRegistry::Global().GetGauge(
              std::string("stage/") + name + ".sim_seconds")};
    }
    return out;
  }();
  return stages;
}

/// The `stage/<name>` span of the stage charging `category`.
telemetry::SpanSite* StageSpan(models::CostCategory category) {
  return GetStageTelemetry()[static_cast<size_t>(category)].span;
}

/// Run-level aggregates (per clip and across clips/configs).
struct RunTelemetry {
  telemetry::Counter* runs;
  telemetry::Counter* frames;
  telemetry::Counter* detections_kept;
  telemetry::Histogram* run_sim_seconds;
};

const RunTelemetry& GetRunTelemetry() {
  static const RunTelemetry t{
      telemetry::MetricsRegistry::Global().GetCounter("pipeline.runs"),
      telemetry::MetricsRegistry::Global().GetCounter("pipeline.frames"),
      telemetry::MetricsRegistry::Global().GetCounter(
          "pipeline.detections_kept"),
      telemetry::MetricsRegistry::Global().GetHistogram(
          "pipeline.run_sim_seconds"),
  };
  return t;
}

/// Folds one finished run into the global registry. Observation only: must
/// never influence the result (the telemetry on/off regression test pins
/// this down).
void RecordRunTelemetry(const PipelineResult& result) {
  const auto& stages = GetStageTelemetry();
  for (int i = 0; i < kNumStages; ++i) {
    const double sec =
        result.clock.Seconds(static_cast<models::CostCategory>(i));
    if (sec > 0.0) stages[static_cast<size_t>(i)].sim_seconds->Add(sec);
  }
  const RunTelemetry& t = GetRunTelemetry();
  t.runs->Add(1);
  t.frames->Add(result.frames_processed);
  t.detections_kept->Add(result.detections_kept);
  t.run_sim_seconds->Record(result.clock.TotalSeconds());
}

// Frames per batched detector invocation, recorded at the point the
// detector is actually invoked.
telemetry::Histogram* DetectInvocationFrames() {
  static telemetry::Histogram* const h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "detect.invocation_frames",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return h;
}

// Recovery counters (fault runs only; never incremented while disarmed).
telemetry::Counter* RetriesCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Global().GetCounter("executor.retries");
  return c;
}

telemetry::Counter* QuarantinedCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "executor.quarantined_clips");
  return c;
}

telemetry::Counter* DegradedCounter() {
  static telemetry::Counter* const c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "executor.degraded_clips");
  return c;
}

/// How many consecutive injected transient errors exhaust a stage's retry
/// budget for one group.
constexpr int kMaxFaultAttempts = 4;

/// Consults a model-invocation fault site before the stage runs. Transient
/// (kError) decisions retry in place with bounded exponential backoff;
/// because the fault fires before the invocation, no stage state was
/// touched and the retry is just a fresh decision with the next attempt
/// token. kStall sleeps (latency spike) and succeeds. Returns non-OK only
/// after kMaxFaultAttempts consecutive error decisions.
Status AttemptStage(fault::Site* site, int64_t clip, int group,
                    int* retries) {
  for (int attempt = 0;; ++attempt) {
    // Token encodes (clip, group, attempt): each retry re-rolls the site
    // RNG, and the roll sequence is a pure function of the work item.
    const int64_t token = (clip * 1000003 + group) * 16 + attempt;
    fault::Injection inj;
    if (!site->Inject(clip, token, &inj)) return Status::OK();
    if (inj.kind == fault::Kind::kStall) {
      std::this_thread::sleep_for(std::chrono::milliseconds(inj.stall_ms));
      return Status::OK();
    }
    if (attempt + 1 >= kMaxFaultAttempts) {
      return Status::IoError(StrFormat(
          "injected %s fault: clip %lld group %d failed %d attempts",
          site->name().c_str(), static_cast<long long>(clip), group,
          kMaxFaultAttempts));
    }
    ++*retries;
    RetriesCounter()->Add(1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(1 << attempt, 4)));
  }
}

/// The result of a quarantined clip: the failure and nothing else. Reported
/// through the quarantine counter and the log (EvaluateConfig also lists it
/// in EvalResult::failed_clips and in its live-progress run).
PipelineResult Quarantine(int64_t clip, Status status, int retries) {
  QuarantinedCounter()->Add(1);
  OTIF_LOG(kWarning) << "clip " << clip << " quarantined after " << retries
                     << " retrie(s): " << status.ToString()
                     << " — remaining clips continue";
  PipelineResult result;
  result.status = std::move(status);
  result.retries = retries;
  return result;
}

/// One sampled frame's working state as it moves through the proxy,
/// detector and tracker (paper Fig 2 data flow). Run allocates one slot
/// per group lane and re-arms it with Reset for every group.
struct FrameContext {
  /// Frame index within the clip.
  int frame = 0;

  // --- Written by the proxy ---
  /// True when the proxy module ran on this frame.
  bool proxy_ran = false;
  /// Proxy saw an empty frame: the detector can be skipped entirely.
  bool skip_detector = false;
  /// Low-resolution render of the frame (reused by the recurrent tracker
  /// for appearance statistics when available). The slot keeps its pixel
  /// array across groups and is re-rendered in place.
  video::Image low_res_frame;
  bool have_low_res_frame = false;
  /// Native-coordinate detector windows covering positive proxy cells.
  std::vector<geom::BBox> windows;
  /// Detector-resolution sizes of the placed windows (drawn from the fixed
  /// trained set W, scaled). The detector's charge counts distinct window
  /// shapes in these when amortizing per-invocation overhead.
  std::vector<WindowSize> window_sizes;

  // --- Written by the detector ---
  /// Confidence-filtered detections for this frame.
  track::FrameDetections detections;

  /// Re-arms the context for `new_frame`, clearing every per-frame field
  /// while keeping the low_res_frame pixel buffer (and the vectors'
  /// capacity) alive so one slot per group lane is reused without
  /// reallocating.
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

/// What one Run keeps across its frame groups, and the stage work Run calls
/// on it in paper order: Proxy, Detect and Track per group, then Finish and
/// Refine once. Built per Run call, so nothing here is shared across clips
/// or threads.
class ClipRun {
 public:
  ClipRun(const PipelineConfig& config, const TrainedModels* trained,
          const sim::Clip& clip);

  /// Whether this run scores frames with the proxy model.
  bool has_proxy() const { return proxy_ != nullptr; }

  /// Whether Refine has work: refinement is on, a refiner is attached and
  /// the camera is fixed.
  bool refines() const {
    return config_.refine && trained_ != nullptr &&
           trained_->refiner != nullptr && !clip_.spec().moving_camera;
  }

  /// For each frame in order: renders it, looks its scores up in the
  /// shared cache and on a miss scores and inserts them, groups its
  /// positive cells into detector windows, and charges the per-frame proxy
  /// cost.
  void Proxy(const std::vector<FrameContext*>& batch, PipelineResult* result);

  /// Runs the detector inside the proxy's windows when they exist, over
  /// the full frame otherwise, and not at all on proxy-empty frames: one
  /// invocation per group (windowed frames batch per distinct window shape,
  /// full frames share one shape), then the confidence filter.
  void Detect(const std::vector<FrameContext*>& batch, PipelineResult* result);

  /// Streams one frame's detections into the tracker (SORT or the
  /// recurrent reduced-rate model).
  void Track(FrameContext* ctx, PipelineResult* result);

  /// Emits the finished tracks.
  std::vector<track::Track> Finish();

  /// Applies cluster-based track start/end refinement; only when refines().
  void Refine(PipelineResult* result);

 private:
  /// Thresholds one frame's cells and groups them into detector windows.
  void ComputeWindows(const nn::Tensor& scores, FrameContext* ctx);

  const PipelineConfig& config_;
  const TrainedModels* trained_;  // Not owned; may be null.
  const sim::Clip& clip_;
  // Render service shared by the proxy and the recurrent tracker. It points
  // at `clip_` and caches that clip's backgrounds, so it lives as long as
  // this run.
  sim::Rasterizer raster_;
  models::SimulatedDetector detector_;
  const models::ProxyModel* proxy_ = nullptr;  // Null iff the proxy is off.
  /// Window sizes scaled to the detector resolution (W is selected in
  /// native coordinates; windows shrink with the frame).
  std::vector<WindowSize> scaled_sizes_;
  double scaled_w_ = 0.0;
  double scaled_h_ = 0.0;
  std::unique_ptr<track::Tracker> sort_tracker_;
  std::unique_ptr<track::RecurrentTracker> recurrent_tracker_;
};

ClipRun::ClipRun(const PipelineConfig& config, const TrainedModels* trained,
                 const sim::Clip& clip)
    : config_(config),
      trained_(trained),
      clip_(clip),
      raster_(&clip),
      detector_(models::ArchByName(models::StandardDetectorArchs(),
                                   config.detector_arch)) {
  const sim::DatasetSpec& spec = clip_.spec();
  if (config_.use_proxy) {
    proxy_ = trained_->proxies[static_cast<size_t>(
                                   config_.proxy_resolution_index)]
                 .get();
    const double scale = config_.detector_scale;
    for (const WindowSize& s : trained_->window_sizes) {
      scaled_sizes_.push_back(
          WindowSize{static_cast<int>(std::ceil(s.w * scale)),
                     static_cast<int>(std::ceil(s.h * scale))});
    }
    scaled_w_ = spec.width * scale;
    scaled_h_ = spec.height * scale;
  }
  if (config_.tracker == TrackerKind::kSort) {
    sort_tracker_ = std::make_unique<track::SortTracker>();
  } else {
    track::RecurrentTracker::Options opts;
    opts.frame_w = spec.width;
    opts.frame_h = spec.height;
    opts.fps = spec.fps;
    recurrent_tracker_ = std::make_unique<track::RecurrentTracker>(
        trained_->tracker_net.get(), opts);
  }
}

void ClipRun::ComputeWindows(const nn::Tensor& scores, FrameContext* ctx) {
  ctx->proxy_ran = true;
  const CellGrid grid = CellGrid::FromScores(scores, config_.proxy_threshold);
  if (grid.CountPositive() == 0) {
    // Nothing in the frame: Detect skips the detector entirely.
    ctx->skip_detector = true;
    return;
  }
  OTIF_SPAN("proxy/group_cells");
  const GroupingResult grouping = GroupCells(
      grid, scaled_sizes_, detector_.arch(), scaled_w_, scaled_h_);
  ctx->window_sizes.reserve(grouping.windows.size());
  for (const PlacedWindow& w : grouping.windows) {
    ctx->window_sizes.push_back(w.size);
  }
  ctx->windows = WindowsToNativeRects(grouping, scaled_w_, scaled_h_,
                                      grid.grid_w, grid.grid_h,
                                      config_.detector_scale);
}

void ClipRun::Proxy(const std::vector<FrameContext*>& batch,
                    PipelineResult* result) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const double frame_seconds =
      costs.proxy_sec_per_frame +
      costs.proxy_sec_per_pixel * proxy_->resolution().world_pixels();
  nn::Tensor scores;
  for (FrameContext* ctx : batch) {
    {
      OTIF_SPAN("proxy/render");
      raster_.RenderInto(ctx->frame, proxy_->resolution().raster_w(),
                         proxy_->resolution().raster_h(),
                         &ctx->low_res_frame);
      ctx->have_low_res_frame = true;
    }
    {
      // Cell scores are cached across tuner evaluations (many thresholds
      // score the same frames); the cache is shared and thread-safe.
      OTIF_SPAN("proxy/score");
      const ProxyScoreCache::Key key = std::make_tuple(
          clip_.clip_seed(), ctx->frame, config_.proxy_resolution_index);
      if (!trained_->proxy_cache.Lookup(key, &scores)) {
        scores = trained_->proxy_cache.Insert(
            key, proxy_->Score(ctx->low_res_frame));
      }
    }
    ComputeWindows(scores, ctx);
    result->clock.Charge(models::CostCategory::kProxy, frame_seconds);
  }
}

void ClipRun::Detect(const std::vector<FrameContext*>& batch,
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

  // One simulated invocation covers all of `ctxs`; the detector emits each
  // frame's detections on its own.
  const auto invoke = [&](const std::vector<FrameContext*>& ctxs) {
    if (telemetry::Enabled()) {
      DetectInvocationFrames()->Record(static_cast<double>(ctxs.size()));
    }
    for (FrameContext* ctx : ctxs) {
      ctx->detections = detector_.Detect(clip_, ctx->frame, scale);
    }
  };

  if (!windowed.empty()) {
    invoke(windowed);
    for (FrameContext* ctx : windowed) {
      ctx->detections = models::FilterByWindows(ctx->detections, ctx->windows);
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
    invoke(full);
    // Full frames all share one input shape: one invocation for the batch.
    const double pixel_seconds_per_frame =
        arch.sec_per_pixel * clip_.spec().width * scale *
        clip_.spec().height * scale;
    result->clock.Charge(
        models::CostCategory::kDetect,
        pixel_seconds_per_frame * static_cast<double>(full.size()) +
            arch.sec_per_invocation);
  }

  // The confidence filter and the kept-detections counter, in frame order.
  for (FrameContext* ctx : batch) {
    ctx->detections = models::FilterByConfidence(ctx->detections,
                                                 config_.detector_confidence);
    result->detections_kept += static_cast<int64_t>(ctx->detections.size());
  }
}

void ClipRun::Track(FrameContext* ctx, PipelineResult* result) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const track::FrameDetections& dets = ctx->detections;

  if (sort_tracker_ != nullptr) {
    result->clock.Charge(
        models::CostCategory::kTrack,
        costs.sort_sec_per_detection * static_cast<double>(dets.size()));
    sort_tracker_->ProcessFrame(ctx->frame, dets);
    return;
  }

  // Appearance statistics from a low-res render (reuse the proxy's when
  // available; otherwise render the raster the tracker trained on —
  // charged as tracker time).
  const sim::DatasetSpec& spec = clip_.spec();
  if (!ctx->have_low_res_frame) {
    raster_.RenderInto(ctx->frame, models::TrackerNet::kAppearanceRasterW,
                       models::TrackerNet::kAppearanceRasterH,
                       &ctx->low_res_frame);
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

std::vector<track::Track> ClipRun::Finish() {
  track::Tracker* tracker = sort_tracker_ != nullptr
                                ? sort_tracker_.get()
                                : recurrent_tracker_.get();
  // Paper Sec 3.4: prune single-detection tracks as likely noise.
  return tracker->Finish(2);
}

void ClipRun::Refine(PipelineResult* result) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  OTIF_SPAN("refine/refine_all");
  result->tracks = trained_->refiner->RefineAll(result->tracks);
  result->clock.Charge(
      models::CostCategory::kRefine,
      costs.refine_sec_per_track * static_cast<double>(result->tracks.size()));
}

}  // namespace

std::string PipelineConfig::ToString() const {
  return StrFormat(
      "arch=%s scale=%.2f conf=%.2f proxy=%s(res=%d thr=%.2f) gap=%d "
      "batch=%d tracker=%s refine=%d",
      detector_arch.c_str(), detector_scale, detector_confidence,
      use_proxy ? "on" : "off", proxy_resolution_index, proxy_threshold,
      sampling_gap, frame_batch,
      tracker == TrackerKind::kSort ? "sort" : "recurrent", refine ? 1 : 0);
}

std::vector<double> StandardDetectorScales() {
  // Each step multiplies pixel count by 1 - kCoarseness.
  std::vector<double> scales;
  double s = 1.0;
  for (int i = 0; i < 10; ++i) {
    scales.push_back(s);
    s *= std::sqrt(1.0 - kCoarseness);
  }
  return scales;
}

std::vector<double> StandardProxyThresholds() {
  return {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

Pipeline::Pipeline(PipelineConfig config, const TrainedModels* trained)
    : config_(std::move(config)), trained_(trained) {
  OTIF_CHECK_GE(config_.sampling_gap, 1);
  OTIF_CHECK_GE(config_.frame_batch, 1);
  OTIF_CHECK_GT(config_.detector_scale, 0.0);
  OTIF_CHECK_LE(config_.detector_scale, 1.0);
  if (trained_ == nullptr) {
    OTIF_CHECK(!config_.use_proxy);
    OTIF_CHECK(config_.tracker == TrackerKind::kSort);
    OTIF_CHECK(!config_.refine);
  } else if (config_.use_proxy) {
    OTIF_CHECK_LT(static_cast<size_t>(config_.proxy_resolution_index),
                  trained_->proxies.size());
    OTIF_CHECK(!trained_->window_sizes.empty());
  }
}

PipelineResult Pipeline::Run(const sim::Clip& clip) const {
  // Umbrella span for the whole clip: on the timeline each clip shows as
  // one block (tagged with the scheduler's clip-id context) containing the
  // per-stage spans below. A stage span wraps only work the stage does;
  // with telemetry off each costs one relaxed load.
  OTIF_SPAN("pipeline/run");
  PipelineResult result;
  ClipRun run(config_, trained_, clip);
  {
    telemetry::ScopedSpan span(StageSpan(models::CostCategory::kDecode));
    // Frames are decoded at the detector resolution (paper Sec 4).
    result.clock.Charge(
        models::CostCategory::kDecode,
        models::DecodeSeconds(clip.spec().width, clip.spec().height,
                              clip.num_frames(), config_.sampling_gap,
                              config_.detector_scale));
  }

  // Sampled frames run through proxy -> detect -> track in groups of
  // frame_batch consecutive contexts, so the detector issues one batched
  // invocation per group; the proxy scores the group's frames one by one.
  //
  // Context slots are allocated once and re-armed per group (Reset keeps
  // the low-res render buffer and vector capacities), so the hot loop does
  // not reconstruct FrameContexts — or their video::Image buffers — for
  // every group.
  std::vector<FrameContext> ctxs(static_cast<size_t>(config_.frame_batch));
  std::vector<FrameContext*> batch;
  batch.reserve(ctxs.size());
  // The clip the scheduler tagged on this thread (-1 outside per-clip work):
  // keys fault decisions.
  const int64_t clip_index = telemetry::timeline::CurrentContext().clip;
  for (int f = 0, group = 0; f < clip.num_frames(); ++group) {
    batch.clear();
    for (int b = 0; b < config_.frame_batch && f < clip.num_frames();
         ++b, f += config_.sampling_gap) {
      FrameContext& ctx = ctxs[static_cast<size_t>(b)];
      ctx.Reset(f);
      batch.push_back(&ctx);
      ++result.frames_processed;
    }
    // Fault recovery: one relaxed flag load while disarmed.
    if (fault::Enabled()) {
      if (run.has_proxy() && !result.proxy_degraded) {
        static fault::Site* const proxy_site =
            fault::GetSite(fault::kProxySite);
        const Status st =
            AttemptStage(proxy_site, clip_index, group, &result.retries);
        if (!st.ok()) {
          // Graceful degradation: from this group on the proxy is skipped,
          // frames keep proxy_ran == false, and Detect falls back to
          // full-frame detection.
          result.proxy_degraded = true;
          DegradedCounter()->Add(1);
          OTIF_LOG(kWarning)
              << "clip " << clip_index << ": proxy stage failing ("
              << st.ToString()
              << "); degrading to full-frame detection — accuracy may drop";
        }
      }
      static fault::Site* const detect_site =
          fault::GetSite(fault::kDetectSite);
      Status st =
          AttemptStage(detect_site, clip_index, group, &result.retries);
      // Detection has no degraded fallback: the clip is quarantined.
      if (!st.ok()) {
        return Quarantine(clip_index, std::move(st), result.retries);
      }
    }
    if (run.has_proxy() && !result.proxy_degraded) {
      telemetry::ScopedSpan span(StageSpan(models::CostCategory::kProxy));
      run.Proxy(batch, &result);
    }
    {
      telemetry::ScopedSpan span(StageSpan(models::CostCategory::kDetect));
      run.Detect(batch, &result);
    }
    {
      telemetry::ScopedSpan span(StageSpan(models::CostCategory::kTrack));
      for (FrameContext* ctx : batch) run.Track(ctx, &result);
    }
  }
  {
    telemetry::ScopedSpan span(StageSpan(models::CostCategory::kTrack));
    result.tracks = run.Finish();
  }
  if (run.refines()) {
    telemetry::ScopedSpan span(StageSpan(models::CostCategory::kRefine));
    run.Refine(&result);
  }
  if (telemetry::Enabled()) RecordRunTelemetry(result);
  return result;
}

}  // namespace otif::core
