#ifndef OTIF_BASELINES_BASELINE_H_
#define OTIF_BASELINES_BASELINE_H_

#include <string>
#include <vector>

#include "core/best_config.h"
#include "models/detector.h"
#include "sim/world.h"
#include "track/iou_tracker.h"

namespace otif::baselines {

/// One operating point of a method on a clip set: its label, simulated
/// runtime and accuracy.
struct MethodPoint {
  std::string label;
  double seconds = 0.0;
  double accuracy = 0.0;
  /// Multiplier for the query-specific part of the method's runtime when
  /// executing additional queries: seconds for Q queries =
  /// reusable_seconds + query_seconds * Q. For track baselines whose whole
  /// output is reusable, query_seconds = 0.
  double reusable_seconds = 0.0;
  double query_seconds = 0.0;
};

/// Picks the fastest point within `tolerance` of the best accuracy across
/// `points` (the Table 2 selection rule). `best_accuracy` is the best
/// accuracy achieved by ANY method on this workload.
const MethodPoint* FastestWithinTolerance(
    const std::vector<MethodPoint>& points, double best_accuracy,
    double tolerance);

/// The detect-and-track loop of the baselines built on a pairwise tracker
/// (Miris, CenterTrack), over one clip. Charges `clock` the decode at
/// (`gap`, `scale`), then on every `gap`-th frame a full-frame `detector`
/// invocation at `scale` and SORT-rate tracking of the detections kept at
/// confidence 0.4, which an IouTracker with `tracker_options` links (its
/// frame size set to the clip's). Returns the tracks with at least two
/// detections.
std::vector<track::Track> DetectAndTrack(
    const sim::Clip& clip, const models::SimulatedDetector& detector, int gap,
    double scale, track::IouTracker::Options tracker_options,
    models::SimClock* clock);

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_BASELINE_H_
