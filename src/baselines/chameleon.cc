#include "baselines/chameleon.h"

#include <algorithm>

#include "util/strings.h"

namespace otif::baselines {
namespace {

// Evaluates a plain (no proxy / SORT) pipeline config on a clip set.
// Everything it outputs is reusable across queries (tracks out), so
// query_seconds = 0.
MethodPoint EvaluatePlainConfig(const std::string& label,
                                const core::PipelineConfig& config,
                                const std::vector<sim::Clip>& clips,
                                const core::AccuracyFn& accuracy) {
  core::EvalResult r =
      core::EvaluateConfig(config, nullptr, clips, accuracy);
  MethodPoint p;
  p.label = label;
  p.seconds = r.seconds;
  p.reusable_seconds = r.seconds;
  p.accuracy = r.accuracy;
  return p;
}

}  // namespace

std::vector<MethodPoint> RunChameleon(const std::vector<sim::Clip>& valid,
                                      const std::vector<sim::Clip>& test,
                                      const core::AccuracyFn& valid_accuracy,
                                      const core::AccuracyFn& test_accuracy) {
  // Hill climb on the validation set: start from the slowest configuration
  // and repeatedly apply whichever knob update (resolution step, gap
  // doubling, architecture switch) loses the least accuracy; each accepted
  // update is one Pareto candidate.
  const std::vector<double> scales = core::StandardDetectorScales();
  core::PipelineConfig current;
  current.detector_arch = "mask_rcnn";
  current.detector_scale = 1.0;
  current.sampling_gap = 1;
  current.tracker = core::TrackerKind::kSort;

  std::vector<core::PipelineConfig> selected = {current};
  size_t scale_idx = 0;
  for (int iter = 0; iter < 12; ++iter) {
    std::vector<std::pair<core::PipelineConfig, size_t>> candidates;
    if (scale_idx + 1 < scales.size()) {
      core::PipelineConfig c = current;
      c.detector_scale = scales[scale_idx + 1];
      candidates.push_back({c, scale_idx + 1});
    }
    if (current.sampling_gap < 32) {
      core::PipelineConfig c = current;
      c.sampling_gap *= 2;
      candidates.push_back({c, scale_idx});
    }
    {
      core::PipelineConfig c = current;
      c.detector_arch =
          current.detector_arch == "yolov3" ? "mask_rcnn" : "yolov3";
      // Architecture switch is only a speedup in one direction.
      if (c.detector_arch == "yolov3") candidates.push_back({c, scale_idx});
    }
    if (candidates.empty()) break;
    double best_acc = -1.0;
    core::PipelineConfig best_config;
    size_t best_scale_idx = scale_idx;
    for (const auto& [c, si] : candidates) {
      const double acc =
          core::EvaluateConfig(c, nullptr, valid, valid_accuracy).accuracy;
      if (acc > best_acc) {
        best_acc = acc;
        best_config = c;
        best_scale_idx = si;
      }
    }
    current = best_config;
    scale_idx = best_scale_idx;
    selected.push_back(current);
  }

  std::vector<MethodPoint> points;
  for (const core::PipelineConfig& c : selected) {
    points.push_back(EvaluatePlainConfig(
        StrFormat("chameleon(%s)", c.ToString().c_str()), c, test,
        test_accuracy));
  }
  return points;
}

}  // namespace otif::baselines
