#ifndef OTIF_TRACK_SORT_TRACKER_H_
#define OTIF_TRACK_SORT_TRACKER_H_

#include <vector>

#include "track/kalman.h"
#include "track/types.h"

namespace otif::track {

/// SORT (Simple Online and Realtime Tracking, Bewley et al. 2016): Kalman
/// constant-velocity prediction + Hungarian assignment on IoU. This is the
/// heuristic tracker the paper uses inside the best-accuracy configuration
/// theta_best and in the "+ Sampling Rate" ablation row.
class SortTracker {
 public:
  /// Processes the detections of one frame; `frame` must be strictly
  /// increasing across calls (frames may be arbitrarily spaced for
  /// reduced-rate tracking).
  void ProcessFrame(int frame, const FrameDetections& detections);

  /// Finalizes and returns all tracks (including still-active ones) and
  /// resets the tracker. Tracks with fewer than `min_detections` detections
  /// are pruned; the paper prunes single-detection tracks as likely
  /// spurious (Sec 3.4).
  std::vector<Track> Finish(int min_detections);

  /// Number of currently active (not yet dropped) tracks.
  size_t num_active() const { return active_.size(); }

 private:
  struct ActiveTrack {
    Track track;
    KalmanBoxFilter filter;
    int misses = 0;
    int last_frame = 0;
  };

  int64_t next_id_ = 0;
  int last_processed_frame_ = -1;
  std::vector<ActiveTrack> active_;
  std::vector<Track> finished_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_SORT_TRACKER_H_
