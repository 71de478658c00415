#ifndef OTIF_TRACK_RECURRENT_TRACKER_H_
#define OTIF_TRACK_RECURRENT_TRACKER_H_

#include <vector>

#include "models/tracker_net.h"
#include "track/tracker.h"

namespace otif::track {

/// Runtime for the recurrent reduced-rate tracking model (paper Sec 3.4).
/// Maintains, per active track, the GRU hidden state folded over its
/// detections; on each processed frame, scores every (track, detection)
/// pair inside a distance gate with the matching network and solves a
/// Hungarian assignment on (1 - probability), rejecting matches below a
/// probability threshold. A frame's pairs are scored in one batched pass
/// (TrackerNet::ScorePairs), and its matched and new tracks are folded into
/// their GRU states in one batched step (TrackerNet::AdvanceBatch); both
/// are bit-identical to the per-pair ScorePair and Advance.
class RecurrentTracker : public Tracker {
 public:
  struct Options {
    /// Minimum match probability to accept an assignment.
    double match_threshold = 0.5;
    /// Frame dimensions used for feature normalization.
    double frame_w = 1280;
    double frame_h = 720;
    double fps = 10;
  };

  /// `net` must outlive the tracker and be trained; the tracker only runs
  /// inference (thread-safe on the shared net, so many trackers may share
  /// one trained model across threads).
  RecurrentTracker(const models::TrackerNet* net, Options options);

  void ProcessFrame(int frame, const FrameDetections& detections) override;

  /// Per-detection appearance statistics (mean, std of the patch in a
  /// low-resolution render); `appearance` has one entry per detection. The
  /// plain ProcessFrame uses neutral statistics.
  void ProcessFrameWithAppearance(
      int frame, const FrameDetections& detections,
      const std::vector<std::pair<double, double>>& appearance);

  std::vector<Track> Finish(int min_detections) override;

  size_t num_active() const { return active_.size(); }

  /// Number of (track, detection) pair scores computed so far; drives the
  /// tracker entry in the cost model.
  int64_t pair_scores_computed() const { return pair_scores_; }

 private:
  struct ActiveTrack {
    Track track;
    nn::Tensor hidden;
    int misses = 0;
  };

  /// Scores every (track, detection) pair inside the distance gate in one
  /// batched pass (`det_features` holds one row per detection) and solves
  /// the assignment. Returns each track's matched detection, or -1.
  std::vector<int> MatchDetections(const FrameDetections& detections,
                                   const nn::Tensor& det_features);

  const models::TrackerNet* net_;  // Not owned.
  Options options_;
  int64_t next_id_ = 0;
  int last_processed_frame_ = -1;
  int64_t pair_scores_ = 0;
  std::vector<ActiveTrack> active_;
  std::vector<Track> finished_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_RECURRENT_TRACKER_H_
