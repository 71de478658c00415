#ifndef OTIF_TRACK_RECURRENT_TRACKER_H_
#define OTIF_TRACK_RECURRENT_TRACKER_H_

#include <utility>
#include <vector>

#include "models/tracker_net.h"
#include "track/hungarian.h"
#include "track/track_book.h"
#include "track/types.h"

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
class RecurrentTracker {
 public:
  struct Options {
    /// Frame dimensions used for feature normalization.
    double frame_w = 1280;
    double frame_h = 720;
    double fps = 10;
  };

  /// `net` must outlive the tracker and be trained; the tracker only runs
  /// inference (thread-safe on the shared net, so many trackers may share
  /// one trained model across threads).
  RecurrentTracker(const models::TrackerNet* net, Options options);

  /// Processes the detections of one frame; `frame` must be strictly
  /// increasing across calls, and every detection must carry it.
  /// `appearance` holds one (mean, std) pair per detection: the statistics
  /// of its patch in a low-resolution render.
  void ProcessFrameWithAppearance(
      int frame, const FrameDetections& detections,
      const std::vector<std::pair<double, double>>& appearance);

  /// Finalizes and returns all tracks (including still-active ones) with at
  /// least `min_detections` detections, and resets the tracker.
  std::vector<Track> Finish(int min_detections) {
    return book_.Finish(min_detections);
  }

  size_t num_active() const { return book_.num_active(); }

  /// Number of (track, detection) pair scores computed so far; drives the
  /// tracker entry in the cost model.
  int64_t pair_scores_computed() const { return pair_scores_; }

 private:
  /// Scores every (track, detection) pair inside the distance gate in one
  /// batched pass (`det_features` holds one row per detection) and solves
  /// the assignment. Returns each track's matched detection, or -1.
  std::vector<int> MatchDetections(const FrameDetections& detections,
                                   const nn::Tensor& det_features);

  const models::TrackerNet* net_;  // Not owned.
  // The net's weights as the batched paths read them, transposed once per
  // tracker instead of once per frame.
  const models::TrackerNet::BatchWeights weights_;
  Options options_;
  int64_t pair_scores_ = 0;
  /// Each track's state is its GRU hidden state.
  TrackBook<nn::Tensor> book_;
  // The frame path's buffers, kept so that a frame reuses them instead of
  // allocating: the gated pairs with their feature inputs, and the
  // assignment's cost matrix. The inputs point at the frame's detections
  // and tracks, so they are read only within the frame that fills them.
  std::vector<models::TrackerNet::PairIndex> pairs_;
  std::vector<models::TrackerNet::PairInput> pair_inputs_;
  CostMatrix cost_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_RECURRENT_TRACKER_H_
