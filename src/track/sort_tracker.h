#ifndef OTIF_TRACK_SORT_TRACKER_H_
#define OTIF_TRACK_SORT_TRACKER_H_

#include <vector>

#include "track/kalman.h"
#include "track/track_book.h"
#include "track/types.h"

namespace otif::track {

/// SORT (Simple Online and Realtime Tracking, Bewley et al. 2016): Kalman
/// constant-velocity prediction + Hungarian assignment on IoU. This is the
/// heuristic tracker the paper uses inside the best-accuracy configuration
/// theta_best and in the "+ Sampling Rate" ablation row.
class SortTracker {
 public:
  SortTracker();

  /// Processes the detections of one frame; `frame` must be strictly
  /// increasing across calls (frames may be arbitrarily spaced for
  /// reduced-rate tracking), and every detection must carry it.
  void ProcessFrame(int frame, const FrameDetections& detections);

  /// Finalizes and returns all tracks (including still-active ones) and
  /// resets the tracker. Tracks with fewer than `min_detections` detections
  /// are pruned; the paper prunes single-detection tracks as likely
  /// spurious (Sec 3.4).
  std::vector<Track> Finish(int min_detections) {
    return book_.Finish(min_detections);
  }

 private:
  struct State {
    KalmanBoxFilter filter;
    int last_frame;
  };

  TrackBook<State> book_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_SORT_TRACKER_H_
