#ifndef OTIF_EVAL_HARNESS_H_
#define OTIF_EVAL_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "core/otif.h"
#include "eval/workload.h"
#include "util/status.h"

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

/// Options controlling experiment size (CPU-bounded defaults).
struct ExperimentOptions {
  core::RunScale scale;
  /// Baselines to run (all by default); OTIF always runs. CenterTrack is
  /// skipped on moving-camera datasets (the paper's "-" for UAV in
  /// Table 2).
  std::vector<std::string> methods = {"miris", "chameleon", "noscope",
                                      "catdet", "centertrack"};
};

/// Runs the full track-query experiment on one dataset. Fails with
/// InvalidArgument, before any training, on an unknown method name in
/// `options.methods`; a non-OK return also triggers the timeline flight recorder
/// (timeline::ReportError) so postmortems carry the last trace events and
/// a telemetry snapshot.
StatusOr<TrackExperimentResult> RunTrackExperiment(
    sim::DatasetId id, const ExperimentOptions& options);

/// Runtime (seconds) of a method for Q queries, given its fastest point
/// within tolerance: reusable_seconds + query_seconds * Q.
double SecondsForQueries(const baselines::MethodPoint& point, int queries);

}  // namespace otif::eval

#endif  // OTIF_EVAL_HARNESS_H_
