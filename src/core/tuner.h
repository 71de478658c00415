#ifndef OTIF_CORE_TUNER_H_
#define OTIF_CORE_TUNER_H_

#include <string>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"

namespace otif::core {

/// One point on the tuner's output speed-accuracy curve.
struct TunerPoint {
  PipelineConfig config;
  /// Simulated seconds to process the validation set under this config.
  double val_seconds = 0.0;
  double val_accuracy = 0.0;
  /// Module whose update produced this point: "init" for theta_1, else
  /// "detection", "proxy", or "gap". Mirrored into the telemetry counters
  /// tuner.chosen.<module> for run reports.
  std::string chosen_module = "init";
};

/// The OTIF joint parameter tuner (paper Sec 3.5). Starting from the
/// best-accuracy configuration, each iteration asks every enabled module
/// for an update that speeds the pipeline up by roughly the coarseness
/// kCoarseness (C = 30%), evaluates each candidate on the validation set,
/// and keeps the most accurate. The result approximates the Pareto frontier
/// with O(mn) validation evaluations.
///
/// Module subsets support the Table 4 ablation: detector-only, +sampling
/// rate, +recurrent tracker, +segmentation proxy model.
class Tuner {
 public:
  struct Options {
    /// Maximum number of curve points after theta_1.
    int max_iterations = 14;
    /// Enable the tracking module's sampling-gap parameter (capped at
    /// kMaxSamplingGap).
    bool enable_gap_tuning = true;
    /// Tracker used by tuned configurations.
    TrackerKind tracker = TrackerKind::kRecurrent;
    /// Enable the segmentation proxy model module.
    bool enable_proxy = true;
    /// Enable cluster-based track refinement in tuned configurations
    /// (ignored for moving-camera datasets by the pipeline itself).
    bool enable_refine = true;
  };

  /// Cached detection-module profile: per-frame runtime and validation
  /// accuracy for one (architecture, scale) choice (Sec 3.5.1).
  struct DetectionProfile {
    std::string arch;
    double scale = 1.0;
    double per_frame_sec = 0.0;
    double accuracy = 0.0;
  };

  /// Cached proxy-module profile for one (resolution, threshold) choice
  /// (Sec 3.5.2): the windowed detector's cost relative to a full-frame
  /// pass, the proxy's own per-frame cost, and its detection recall.
  struct ProxyProfile {
    int resolution_index = 0;
    double threshold = 0.5;
    double relative_detector_cost = 1.0;
    double proxy_sec_per_frame = 0.0;
    double recall = 1.0;
  };

  Tuner(const std::vector<sim::Clip>* validation, const TrainedModels* trained,
        AccuracyFn accuracy_fn, Options options);

  /// Runs the caching phase then the greedy tuning phase; returns the
  /// speed-accuracy curve starting at theta_1 (derived from theta_best).
  std::vector<TunerPoint> Run(const PipelineConfig& theta_best);

  /// Caching-phase outputs, exposed for tests and diagnostics.
  const std::vector<DetectionProfile>& detection_profiles() const {
    return detection_profiles_;
  }
  const std::vector<ProxyProfile>& proxy_profiles() const {
    return proxy_profiles_;
  }

  /// Total validation evaluations performed (the paper's O(mn) claim).
  int evaluations_performed() const { return evaluations_; }

 private:
  /// Evaluates `config` on the validation set through the proxy score memo
  /// (TrainedModels::proxy_cache), which every evaluation of the run shares.
  EvalResult Evaluate(const PipelineConfig& config) const;

  void CacheDetectionModule(const PipelineConfig& theta_best);
  void CacheProxyModule(const PipelineConfig& theta_best);

  /// Estimated per-frame detector+proxy cost of a configuration, from the
  /// caches.
  double EstimatedPerFrameCost(const PipelineConfig& config) const;

  /// Module update requests; return false when no ~C-faster update exists.
  bool ProposeDetectionUpdate(const PipelineConfig& current,
                              PipelineConfig* out) const;
  bool ProposeProxyUpdate(const PipelineConfig& current,
                          PipelineConfig* out) const;
  bool ProposeGapUpdate(const PipelineConfig& current,
                        PipelineConfig* out) const;

  const std::vector<sim::Clip>* validation_;  // Not owned.
  const TrainedModels* trained_;              // Not owned.
  AccuracyFn accuracy_fn_;
  Options options_;
  std::vector<DetectionProfile> detection_profiles_;
  std::vector<ProxyProfile> proxy_profiles_;
  int evaluations_ = 0;
};

}  // namespace otif::core

#endif  // OTIF_CORE_TUNER_H_
