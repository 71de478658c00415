#ifndef OTIF_TRACK_SORT_TRACKER_H_
#define OTIF_TRACK_SORT_TRACKER_H_

#include <vector>

#include "track/kalman.h"
#include "track/tracker.h"

namespace otif::track {

/// SORT (Simple Online and Realtime Tracking, Bewley et al. 2016): Kalman
/// constant-velocity prediction + Hungarian assignment on IoU. This is the
/// heuristic tracker the paper uses inside the best-accuracy configuration
/// theta_best and in the "+ Sampling Rate" ablation row.
class SortTracker : public Tracker {
 public:
  struct Options {
    /// Minimum IoU between a predicted box and a detection to allow a match.
    double iou_threshold = 0.25;
  };

  explicit SortTracker(Options options);
  SortTracker() : SortTracker(Options{}) {}

  void ProcessFrame(int frame, const FrameDetections& detections) override;
  std::vector<Track> Finish(int min_detections) override;

  /// Number of currently active (not yet dropped) tracks.
  size_t num_active() const { return active_.size(); }

 private:
  struct ActiveTrack {
    Track track;
    KalmanBoxFilter filter;
    int misses = 0;
    int last_frame = 0;
  };

  Options options_;
  int64_t next_id_ = 0;
  int last_processed_frame_ = -1;
  std::vector<ActiveTrack> active_;
  std::vector<Track> finished_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_SORT_TRACKER_H_
