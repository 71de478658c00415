#ifndef OTIF_CORE_BEST_CONFIG_H_
#define OTIF_CORE_BEST_CONFIG_H_

#include <functional>
#include <vector>

#include "core/pipeline.h"
#include "sim/world.h"
#include "track/types.h"
#include "util/status.h"

namespace otif::core {

/// Accuracy metric over per-clip track outputs; returned values in [0, 1].
/// The evaluation harness builds these from the user's query + ground truth
/// (paper workflow, Fig 1).
using AccuracyFn =
    std::function<double(const std::vector<std::vector<track::Track>>&)>;

/// One clip that fault recovery gave up on: its detector kept failing
/// after bounded retries, so Pipeline::Run quarantined it.
struct FailedClip {
  int clip_index = -1;
  Status status;    // The fault that exhausted the retry budget.
  int retries = 0;  // Transient retries the clip consumed before giving up.
};

/// Result of evaluating one configuration over a clip set.
struct EvalResult {
  double accuracy = 0.0;
  double seconds = 0.0;
  models::SimClock clock;
  /// Positional by clip index; a quarantined clip's entry is empty.
  std::vector<std::vector<track::Track>> tracks_per_clip;
  /// Quarantined clips, ascending. Empty unless OTIF_FAULTS is armed.
  std::vector<FailedClip> failed_clips;
  /// Clips whose proxy failed persistently and fell back to full-frame
  /// detection, ascending. Empty unless OTIF_FAULTS is armed.
  std::vector<int> degraded_clips;
};

/// Runs the pipeline under `config` over every clip and scores the outputs.
/// Clips run independently across the default worker pool, one
/// Pipeline::Run each; results are bit-identical at any pool width.
EvalResult EvaluateConfig(const PipelineConfig& config,
                          const TrainedModels* trained,
                          const std::vector<sim::Clip>& clips,
                          const AccuracyFn& accuracy_fn);

// Pass-throughs kept only so the source of the perfbench/ benchmark, which
// names an executor kind, still compiles. Nothing else may call them: the
// one clip executor is EvaluateConfig.
enum class ExecutorKind { kSerial };
inline const char* ExecutorKindName(ExecutorKind) { return "serial"; }
inline ExecutorKind ExecutorKindFromEnv() { return ExecutorKind::kSerial; }
inline EvalResult EvaluateConfigWith(ExecutorKind, const PipelineConfig& config,
                                     const TrainedModels* trained,
                                     const std::vector<sim::Clip>& clips,
                                     const AccuracyFn& accuracy_fn) {
  return EvaluateConfig(config, trained, clips, accuracy_fn);
}

/// Largest sampling gap, in frames, that SelectBestConfig's walk and the
/// tuner's gap module choose.
inline constexpr int kMaxSamplingGap = 64;

/// Selects the best-accuracy configuration theta_best (paper Sec 3.3):
/// starting from the slowest configuration (no proxy, full resolution,
/// gap 1, SORT tracker — proxy and recurrent models are not yet trained at
/// this stage), repeatedly reduce the detector resolution in C~30% pixel
/// steps while accuracy does not decrease, then reduce the sampling rate
/// the same way. Accuracy is often *higher* below full resolution, which is
/// why the walk continues through accuracy-improving steps.
PipelineConfig SelectBestConfig(const std::vector<sim::Clip>& validation,
                                const AccuracyFn& accuracy_fn,
                                double* best_accuracy_out);

}  // namespace otif::core

#endif  // OTIF_CORE_BEST_CONFIG_H_
