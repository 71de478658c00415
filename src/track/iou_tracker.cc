#include "track/iou_tracker.h"

#include <cmath>

#include "track/hungarian.h"

namespace otif::track {
namespace {

/// The greedy matcher takes pairs whose cost is below 1 - kIouThreshold / 2.
constexpr double kIouThreshold = 0.1;

}  // namespace

IouTracker::IouTracker(Options options)
    : options_(options), book_(options.max_misses) {}

void IouTracker::ProcessFrame(int frame, const FrameDetections& detections) {
  book_.StartFrame(frame, detections);
  const auto active = book_.active();
  const size_t n_tracks = active.size();
  const size_t n_dets = detections.size();
  const double diag = std::sqrt(options_.frame_w * options_.frame_w +
                                options_.frame_h * options_.frame_h);

  std::vector<int> det_for_track(n_tracks, -1);
  if (n_tracks > 0 && n_dets > 0) {
    CostMatrix cost(static_cast<int>(n_tracks), static_cast<int>(n_dets),
                    2.0);
    for (size_t t = 0; t < n_tracks; ++t) {
      const Detection& last = active[t].track.detections.back();
      for (size_t d = 0; d < n_dets; ++d) {
        const double shift =
            last.box.Center().DistanceTo(detections[d].box.Center());
        if (shift > options_.max_center_shift_frac * diag) continue;
        const double iou = last.box.Iou(detections[d].box);
        // Cost mixes IoU and normalized displacement so matching still
        // works when boxes at reduced rates no longer overlap.
        cost(static_cast<int>(t), static_cast<int>(d)) =
            (1.0 - iou) * 0.5 + (shift / diag) * 0.5;
      }
    }
    det_for_track = GreedyAssignment(cost, 1.0 - kIouThreshold * 0.5);
  }

  book_.EndFrame(
      detections, det_for_track, [](NoState&, const Detection&) {},
      [](const Detection&) { return NoState{}; });
}

}  // namespace otif::track
