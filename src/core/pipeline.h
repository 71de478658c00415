#ifndef OTIF_CORE_PIPELINE_H_
#define OTIF_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cell_grouping.h"
#include "core/proxy_cache.h"
#include "models/cost_model.h"
#include "models/detector.h"
#include "models/proxy.h"
#include "models/tracker_net.h"
#include "sim/raster.h"
#include "sim/world.h"
#include "track/refine.h"
#include "track/types.h"
#include "util/status.h"

namespace otif::core {

/// Tuning coarseness C = 30% (paper Sec 3.5): each tuner step targets a ~C
/// overall speedup, and each step of the detector-scale ladder cuts the
/// pixel count by C.
inline constexpr double kCoarseness = 0.3;

/// Which tracker the pipeline runs on top of the detector.
enum class TrackerKind {
  /// Heuristic SORT tracker (used inside theta_best and ablations).
  kSort,
  /// The recurrent reduced-rate tracking model (full OTIF).
  kRecurrent,
};

/// One parameter configuration theta (paper Sec 3.5). The tuner walks a
/// sequence of these; theta_best is the accuracy-maximizing instance.
struct PipelineConfig {
  // --- Detection module ---
  std::string detector_arch = "yolov3";
  /// Detector input resolution as a fraction of native resolution.
  double detector_scale = 1.0;
  double detector_confidence = 0.4;
  // --- Proxy model module ---
  bool use_proxy = false;
  /// Index into the trained proxy models (resolution choice).
  int proxy_resolution_index = 0;
  /// Threshold B_proxy on per-cell scores.
  double proxy_threshold = 0.5;
  // --- Tracking module ---
  /// Sampling gap g: process 1 in every g frames (power of two).
  int sampling_gap = 1;
  /// Frames per group: Run takes consecutive sampled frames through the
  /// proxy, detector and tracker in groups of this size. Only the detector
  /// batches: it runs one invocation per group instead of one per frame,
  /// and is charged for it. The proxy scores each frame on its own. 1
  /// reproduces strictly per-frame execution.
  int frame_batch = 8;
  TrackerKind tracker = TrackerKind::kSort;
  /// Apply cluster-based start/end refinement (fixed cameras only).
  bool refine = false;

  /// Compact human-readable description, e.g. for tuner logs.
  std::string ToString() const;
};

/// Per-dataset trained artifacts shared by all pipeline runs: proxy models
/// (one per resolution), the recurrent tracker network, the fixed window
/// size set W (native coordinates), and the track refiner built from S*.
struct TrainedModels {
  std::vector<std::unique_ptr<models::ProxyModel>> proxies;
  std::unique_ptr<models::TrackerNet> tracker_net;
  std::vector<WindowSize> window_sizes;
  std::unique_ptr<track::TrackRefiner> refiner;

  /// The tuner's memo of proxy scores keyed by (clip seed, frame,
  /// resolution index): its evaluations re-score the same validation frames
  /// under many thresholds, possibly from several worker threads. Runs use
  /// it only when handed it as Pipeline's `memo` (see ProxyScoreCache for
  /// who passes it and why its size stays bounded); Otif::Execute does not.
  ProxyScoreCache proxy_cache;
};

/// Outcome of running the pipeline over one clip.
struct PipelineResult {
  std::vector<track::Track> tracks;
  models::SimClock clock;
  int frames_processed = 0;
  int64_t detections_kept = 0;

  // --- Fault recovery (only ever set while OTIF_FAULTS is armed) ---
  /// Non-OK when the clip was quarantined: its detector kept failing after
  /// bounded retries. A quarantined result carries only this status and
  /// `retries` — no tracks, frames or simulated charges.
  Status status;
  /// Transient model-invocation faults retried during the run.
  int retries = 0;
  /// The proxy kept failing, so the clip fell back to full-frame detection
  /// from the failing frame group on.
  bool proxy_degraded = false;
};

/// The OTIF execution pipeline (paper Fig 2): the tracker selects frames by
/// the sampling gap; the segmentation proxy model selects windows; the
/// detector runs inside the windows; detections stream into the tracker.
/// All stage costs are charged to the simulated clock.
class Pipeline {
 public:
  /// `trained` may be null only for configurations with use_proxy = false
  /// and tracker = kSort and refine = false. `memo`, when not null, is
  /// where the proxy looks its scores up and stores them (the tuner and the
  /// loops that re-score the same clips pass one); when null, every frame
  /// is scored straight through.
  Pipeline(PipelineConfig config, const TrainedModels* trained,
           const ProxyScoreCache* memo = nullptr);

  const PipelineConfig& config() const { return config_; }

  /// Runs the pipeline over a clip, returning tracks and simulated costs.
  ///
  /// Fault recovery (reachable only with OTIF_FAULTS armed): before each
  /// frame group Run consults the `proxy.invoke` and `detect.invoke`
  /// sites. Transient errors retry with bounded backoff; a proxy that keeps
  /// failing degrades the rest of the clip to full-frame detection; a
  /// detector that keeps failing quarantines the clip (see
  /// PipelineResult::status). Decisions are keyed by the clip index in the
  /// calling thread's timeline context, so they replay identically under
  /// any thread interleaving.
  PipelineResult Run(const sim::Clip& clip) const;

 private:
  PipelineConfig config_;
  const TrainedModels* trained_;  // Not owned; may be null (see ctor).
  const ProxyScoreCache* memo_;   // Not owned; may be null (see ctor).
};

/// The standard detector-scale ladder used by the tuner: each step reduces
/// pixel count by the tuning coarseness kCoarseness.
std::vector<double> StandardDetectorScales();

/// The standard proxy threshold grid used by the tuner's caching phase.
std::vector<double> StandardProxyThresholds();

}  // namespace otif::core

#endif  // OTIF_CORE_PIPELINE_H_
