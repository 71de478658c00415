#include "core/pipeline.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "core/stages.h"
#include "obs/run_progress.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::core {
namespace {

/// Telemetry for one pipeline stage: a wall-clock span (driver-measured,
/// covers BeginClip + per-frame work + EndClip) and a simulated-seconds
/// accumulator fed from the run's SimClock. The five stages map 1:1 onto
/// the first five cost categories, so Figure 6's breakdown and the live
/// instrumentation read the same accumulators.
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
/// token. kStall sleeps (latency spike) and succeeds; other kinds are not
/// meaningful for an invocation and pass through. Returns non-OK only after
/// kMaxFaultAttempts consecutive error decisions.
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
    if (inj.kind != fault::Kind::kError) return Status::OK();
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
/// through the quarantine counter, the live-progress registry (/statusz) and
/// the flight recorder.
PipelineResult Quarantine(int64_t clip, Status status, int retries) {
  QuarantinedCounter()->Add(1);
  OTIF_LOG(kWarning) << "clip " << clip << " quarantined after " << retries
                     << " retrie(s): " << status.ToString()
                     << " — remaining clips continue";
  if (obs::ProgressEnabled()) {
    obs::RunProgress::Global().MarkClipQuarantined(static_cast<int>(clip),
                                                   status.ToString());
  }
  telemetry::timeline::ReportError(
      status, "pipeline: quarantined clip " + std::to_string(clip));
  PipelineResult result;
  result.status = std::move(status);
  result.retries = retries;
  return result;
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
  // Each step multiplies pixel count by 0.7 (the tuning coarseness C=30%).
  std::vector<double> scales;
  double s = 1.0;
  for (int i = 0; i < 10; ++i) {
    scales.push_back(s);
    s *= std::sqrt(0.7);
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

double Pipeline::DecodeSecondsForClip(const sim::Clip& clip) const {
  return SimulatedDecodeSeconds(config_, clip);
}

PipelineResult Pipeline::Run(const sim::Clip& clip) const {
  // Umbrella span for the whole clip: on the timeline each clip shows as
  // one block (tagged with the scheduler's clip-id context) containing the
  // per-stage spans below.
  OTIF_SPAN("pipeline/run");
  PipelineResult result;
  const models::DetectorArch arch = models::ArchByName(
      models::StandardDetectorArchs(), config_.detector_arch);
  // Per-run render service shared by the proxy and tracking stages (its
  // background cache makes it non-reentrant, so it must not outlive the run).
  sim::Rasterizer raster(&clip);

  // The stage sequence (paper Fig 2). Stages are per-run scoped and
  // communicate only through the FrameContext and the result clock.
  DecodeStage decode(config_, clip);
  ProxyStage proxy(config_, trained_, clip, arch, &raster);
  DetectStage detect(config_, clip, arch);
  TrackStage track(config_, trained_, clip, &raster);
  RefineStage refine(config_, trained_, clip);
  Stage* const stages[] = {&decode, &proxy, &detect, &track, &refine};
  const auto& stage_telemetry = GetStageTelemetry();

  // Each stage call runs under its stage's wall-clock span; the span sites
  // aggregate (count, total, min, max) with relaxed atomics, so the
  // per-frame cost is two clock reads per stage when telemetry is on and
  // one relaxed load when it is off.
  for (int s = 0; s < kNumStages; ++s) {
    telemetry::ScopedSpan span(stage_telemetry[static_cast<size_t>(s)].span);
    stages[s]->BeginClip(&result);
  }
  // Sampled frames run through the stages in batches: each stage sees a
  // group of frame_batch consecutive contexts per call, so batched stages
  // issue one model invocation per group while unbatched stages fall back
  // to the per-frame loop. One stage span per batch instead of per frame.
  //
  // Context slots are allocated once and re-armed per group (Reset keeps
  // the low-res render buffer and vector capacities), so the hot loop does
  // not reconstruct FrameContexts — or their video::Image buffers — for
  // every batch.
  std::vector<FrameContext> ctxs(static_cast<size_t>(config_.frame_batch));
  std::vector<FrameContext*> batch;
  batch.reserve(ctxs.size());
  // The clip the scheduler tagged on this thread (-1 outside per-clip work):
  // keys fault decisions and attributes live progress.
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
      if (config_.use_proxy && !result.proxy_degraded) {
        static fault::Site* const proxy_site =
            fault::GetSite("proxy.invoke");
        const Status st =
            AttemptStage(proxy_site, clip_index, group, &result.retries);
        if (!st.ok()) {
          // Graceful degradation: from this group on the proxy stage is
          // skipped, frames keep proxy_ran == false, and the detect stage
          // falls back to full-frame detection.
          result.proxy_degraded = true;
          DegradedCounter()->Add(1);
          OTIF_LOG(kWarning)
              << "clip " << clip_index << ": proxy stage failing ("
              << st.ToString()
              << "); degrading to full-frame detection — accuracy may drop";
        }
      }
      static fault::Site* const detect_site = fault::GetSite("detect.invoke");
      Status st =
          AttemptStage(detect_site, clip_index, group, &result.retries);
      // Detection has no degraded fallback: the clip is quarantined.
      if (!st.ok()) {
        return Quarantine(clip_index, std::move(st), result.retries);
      }
    }
    for (int s = 0; s < kNumStages; ++s) {
      if (stages[s] == &proxy && result.proxy_degraded) continue;
      telemetry::ScopedSpan span(stage_telemetry[static_cast<size_t>(s)].span);
      stages[s]->ProcessBatch(batch, &result);
    }
    // Live progress: with introspection off this is the one relaxed flag
    // load; with it on, the batch is attributed to the clip the scheduler
    // tagged on this thread (-1 outside per-clip work still advances the
    // run total and the stall watchdog).
    if (obs::ProgressEnabled()) {
      obs::RunProgress::Global().OnFramesCommitted(
          static_cast<int>(clip_index), static_cast<int64_t>(batch.size()));
    }
  }
  for (int s = 0; s < kNumStages; ++s) {
    telemetry::ScopedSpan span(stage_telemetry[static_cast<size_t>(s)].span);
    stages[s]->EndClip(&result);
  }
  if (telemetry::Enabled()) RecordRunTelemetry(result);
  return result;
}

}  // namespace otif::core
