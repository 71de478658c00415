#ifndef OTIF_TRACK_IOU_TRACKER_H_
#define OTIF_TRACK_IOU_TRACKER_H_

#include <vector>

#include "track/track_book.h"
#include "track/types.h"

namespace otif::track {

/// Minimal IoU-chain tracker: matches detections to the previous frame's
/// boxes by greatest overlap, with no motion model. Used by baselines whose
/// trackers only compare pairs of consecutive frames (Miris' GNN matcher is
/// modeled as this plus a displacement gate; also used by the NoScope /
/// CaTDet pipelines, which pre-date learned trackers).
class IouTracker {
 public:
  struct Options {
    /// Maximum center displacement as a fraction of the frame diagonal per
    /// processed frame step (displacement gate for reduced-rate matching).
    double max_center_shift_frac = 0.25;
    double frame_w = 1280;
    double frame_h = 720;
    int max_misses = 1;
  };

  explicit IouTracker(Options options);

  /// Processes one frame's detections; `frame` must be strictly increasing
  /// across calls, and every detection must carry it.
  void ProcessFrame(int frame, const FrameDetections& detections);

  /// Finalizes and returns all tracks with at least `min_detections`
  /// detections, and resets the tracker.
  std::vector<Track> Finish(int min_detections) {
    return book_.Finish(min_detections);
  }

 private:
  /// The matcher reads only each track's last detection.
  struct NoState {};

  Options options_;
  TrackBook<NoState> book_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_IOU_TRACKER_H_
