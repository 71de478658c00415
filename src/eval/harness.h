#ifndef OTIF_EVAL_HARNESS_H_
#define OTIF_EVAL_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "core/otif.h"
#include "eval/workload.h"

namespace otif::eval {

/// One dataset's Table 2 / Figure 5 experiment: OTIF plus the five track
/// baselines (Miris, Chameleon, NoScope, CaTDet, CenterTrack) on the same
/// train/validation/test splits and accuracy metric.
struct TrackExperimentResult {
  std::string dataset;
  /// Speed-accuracy points per method, measured on the test set.
  std::map<std::string, std::vector<baselines::MethodPoint>> curves;
  /// Best accuracy achieved by any method (reference for the
  /// core::kAccuracyTolerance rule).
  double best_accuracy = 0.0;
  /// The OTIF system used (exposes trained models and the tuner curve).
  std::shared_ptr<core::Otif> otif;
};

/// Runs the full track-query experiment on one dataset at `scale`: OTIF,
/// then Miris, Chameleon, NoScope, CaTDet and CenterTrack. CenterTrack is
/// skipped on moving-camera datasets (the paper's "-" for UAV in Table 2).
TrackExperimentResult RunTrackExperiment(sim::DatasetId id,
                                         const core::RunScale& scale);

/// Runtime (seconds) of a method for Q queries, given its fastest point
/// within tolerance: reusable_seconds + query_seconds * Q.
double SecondsForQueries(const baselines::MethodPoint& point, int queries);

}  // namespace otif::eval

#endif  // OTIF_EVAL_HARNESS_H_
