#ifndef OTIF_TRACK_IOU_TRACKER_H_
#define OTIF_TRACK_IOU_TRACKER_H_

#include <vector>

#include "track/tracker.h"

namespace otif::track {

/// Minimal IoU-chain tracker: matches detections to the previous frame's
/// boxes by greatest overlap, with no motion model. Used by baselines whose
/// trackers only compare pairs of consecutive frames (Miris' GNN matcher is
/// modeled as this plus a displacement gate; also used by the NoScope /
/// CaTDet pipelines, which pre-date learned trackers).
class IouTracker : public Tracker {
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

  void ProcessFrame(int frame, const FrameDetections& detections) override;
  std::vector<Track> Finish(int min_detections) override;

 private:
  struct ActiveTrack {
    Track track;
    int misses = 0;
  };

  Options options_;
  int64_t next_id_ = 0;
  int last_processed_frame_ = -1;
  std::vector<ActiveTrack> active_;
  std::vector<Track> finished_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_IOU_TRACKER_H_
