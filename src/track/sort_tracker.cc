#include "track/sort_tracker.h"

#include "track/hungarian.h"

namespace otif::track {
namespace {

/// A track is dropped after this many *processed frames* without a match
/// (so the tolerance in frames scales with the sampling gap).
constexpr int kMaxMisses = 3;

/// Minimum IoU between a predicted box and a detection to allow a match.
constexpr double kIouThreshold = 0.25;

}  // namespace

SortTracker::SortTracker() : book_(kMaxMisses) {}

void SortTracker::ProcessFrame(int frame, const FrameDetections& detections) {
  book_.StartFrame(frame, detections);
  const auto active = book_.active();

  // Predict all active tracks forward to the current frame.
  for (auto& at : active) {
    at.state.filter.Predict(frame - at.state.last_frame);
  }

  // Assignment on negative IoU (Hungarian minimizes cost).
  const size_t n_tracks = active.size();
  const size_t n_dets = detections.size();
  std::vector<int> det_for_track(n_tracks, -1);
  if (n_tracks > 0 && n_dets > 0) {
    CostMatrix cost(static_cast<int>(n_tracks), static_cast<int>(n_dets),
                    1.0);
    for (size_t t = 0; t < n_tracks; ++t) {
      const geom::BBox predicted = active[t].state.filter.StateBox();
      for (size_t d = 0; d < n_dets; ++d) {
        cost(static_cast<int>(t), static_cast<int>(d)) =
            1.0 - predicted.Iou(detections[d].box);
      }
    }
    det_for_track = SolveAssignment(cost);
    // Reject matches below the IoU threshold.
    for (size_t t = 0; t < n_tracks; ++t) {
      const int d = det_for_track[t];
      if (d >= 0 && cost(static_cast<int>(t), d) > 1.0 - kIouThreshold) {
        det_for_track[t] = -1;
      }
    }
  }

  book_.EndFrame(
      detections, det_for_track,
      [](State& s, const Detection& d) {
        s.filter.Update(d.box);
        s.last_frame = d.frame;
      },
      [](const Detection& d) { return State{KalmanBoxFilter(d.box), d.frame}; });
}

}  // namespace otif::track
