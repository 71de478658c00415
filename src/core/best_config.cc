#include "core/best_config.h"

#include <memory>
#include <utility>

#include "obs/run_progress.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/trace_timeline.h"

namespace otif::core {

EvalResult EvaluateConfig(const PipelineConfig& config,
                          const TrainedModels* trained,
                          const std::vector<sim::Clip>& clips,
                          const AccuracyFn& accuracy_fn,
                          const ProxyScoreCache* memo) {
  Pipeline pipeline(config, trained, memo);
  // This call's live-progress run, null while introspection is off: totals
  // in sampled frames per clip, what Pipeline::Run processes.
  std::shared_ptr<obs::RunProgress::Run> progress;
  if (obs::ProgressEnabled()) {
    std::vector<int64_t> totals;
    totals.reserve(clips.size());
    for (const sim::Clip& clip : clips) {
      totals.push_back((clip.num_frames() + config.sampling_gap - 1) /
                       config.sampling_gap);
    }
    progress = obs::RunProgress::Global().BeginRun(config.ToString(),
                                                   std::move(totals));
  }
  // Clips are independent; run them across the worker pool. Results come
  // back ordered by clip index, and the simulated clock keeps independent
  // per-category accumulators, so merging in clip order reproduces the
  // serial totals bit-for-bit.
  std::vector<PipelineResult> per_clip =
      ParallelMap(ThreadPool::Default(), static_cast<int64_t>(clips.size()),
                  [&](int64_t i) {
                    // Tag this task's timeline events and fault decisions
                    // with the clip index (the tuner, Otif::Execute and the
                    // harness all funnel here).
                    telemetry::timeline::ScopedContext ctx({.clip = i});
                    PipelineResult r =
                        pipeline.Run(clips[static_cast<size_t>(i)]);
                    if (progress != nullptr) {
                      // A quarantined clip processed no frames.
                      progress->CommitFrames(static_cast<int>(i),
                                             r.frames_processed);
                      if (!r.status.ok()) {
                        progress->MarkQuarantined(static_cast<int>(i),
                                                  r.status.ToString());
                      }
                    }
                    return r;
                  });
  if (progress != nullptr) progress->End();
  EvalResult result;
  for (size_t i = 0; i < per_clip.size(); ++i) {
    PipelineResult& r = per_clip[i];
    if (!r.status.ok()) {
      result.failed_clips.push_back(
          {static_cast<int>(i), std::move(r.status), r.retries});
    }
    if (r.proxy_degraded) result.degraded_clips.push_back(static_cast<int>(i));
    result.clock.Merge(r.clock);
    result.tracks_per_clip.push_back(std::move(r.tracks));
  }
  if (!result.failed_clips.empty()) {
    // Quarantined clips contribute empty track lists, so the accuracy below
    // understates the config. Config search under injected faults is a
    // chaos exercise, not a measurement — warn.
    OTIF_LOG(kWarning) << "config evaluation: " << result.failed_clips.size()
                       << " clip(s) quarantined; accuracy is a lower bound";
  }
  result.seconds = result.clock.TotalSeconds();
  result.accuracy = accuracy_fn(result.tracks_per_clip);
  return result;
}

PipelineConfig SelectBestConfig(const std::vector<sim::Clip>& validation,
                                const AccuracyFn& accuracy_fn,
                                double* best_accuracy_out) {
  OTIF_CHECK(!validation.empty());
  // Slowest configuration: strongest architecture at full resolution,
  // gap 1, SORT tracker, no proxy.
  PipelineConfig config;
  config.detector_arch = "mask_rcnn";
  config.detector_scale = 1.0;
  config.sampling_gap = 1;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = false;

  double best_acc =
      EvaluateConfig(config, nullptr, validation, accuracy_fn).accuracy;

  // Architectures are entangled with resolution in the detection module; at
  // this stage pick the better architecture at full resolution.
  {
    PipelineConfig alt = config;
    alt.detector_arch = "yolov3";
    const double acc =
        EvaluateConfig(alt, nullptr, validation, accuracy_fn).accuracy;
    if (acc >= best_acc) {
      config = alt;
      best_acc = acc;
    }
  }

  // Walk down the resolution ladder while accuracy does not decrease.
  const std::vector<double> scales = StandardDetectorScales();
  size_t scale_idx = 0;
  while (scale_idx + 1 < scales.size()) {
    PipelineConfig next = config;
    next.detector_scale = scales[scale_idx + 1];
    const double acc =
        EvaluateConfig(next, nullptr, validation, accuracy_fn).accuracy;
    if (acc < best_acc) break;
    config = next;
    best_acc = acc;
    ++scale_idx;
  }

  // Then walk up the sampling gap while accuracy does not decrease.
  while (config.sampling_gap < kMaxSamplingGap) {
    PipelineConfig next = config;
    next.sampling_gap *= 2;
    const double acc =
        EvaluateConfig(next, nullptr, validation, accuracy_fn).accuracy;
    if (acc < best_acc) break;
    config = next;
    best_acc = acc;
  }

  if (best_accuracy_out != nullptr) *best_accuracy_out = best_acc;
  return config;
}

}  // namespace otif::core
