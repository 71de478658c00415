#ifndef OTIF_MODELS_TRACKER_NET_H_
#define OTIF_MODELS_TRACKER_NET_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "track/types.h"
#include "video/image.h"

namespace otif::models {

/// Recurrent reduced-rate tracking network (paper Sec 3.4). Three
/// components, all trained jointly with backprop:
///   1. a detection feature encoder (MLP over geometry, appearance
///      statistics, and the elapsed-frames input t_elapsed),
///   2. a GRU that folds a track prefix's detection features into a
///      track-level feature (replacing the paper's RNN over CNN features),
///   3. a matching MLP scoring (track features, detection features, pair
///      features) -> logit that the detection extends the track.
///
/// The t_elapsed input is what makes the model usable at arbitrary sampling
/// gaps: training sub-samples tracks at gaps drawn from {1, 2, 4, ..., 2^n}
/// so one model serves every gap the tuner may select.
class TrackerNet {
 public:
  /// Detection feature layout: cx/W, cy/H, w/W, h/H, t_elapsed (seconds,
  /// capped), patch mean, patch std, class index / 3.
  static constexpr int kDetFeatureDim = 8;
  /// Pair feature layout: dx and dy normalized by elapsed time, IoU with
  /// the track's last box, log size ratio, elapsed seconds, and the
  /// candidate's residual against a constant-velocity extrapolation from
  /// the track's last two detections (x and y, normalized by box size).
  /// The residual is the explicit motion cue that lets the matcher stay
  /// accurate at large sampling gaps where boxes no longer overlap.
  static constexpr int kPairFeatureDim = 7;

  explicit TrackerNet(uint64_t seed);

  TrackerNet(const TrackerNet&) = delete;
  TrackerNet& operator=(const TrackerNet&) = delete;

  int hidden_size() const { return kHiddenSize; }

  /// Builds the detection feature vector. `t_elapsed_frames` is the number
  /// of frames since the previous detection of the same track (or since the
  /// previously processed frame, for fresh detections).
  static nn::Tensor DetFeature(const track::Detection& d,
                               double t_elapsed_frames, double fps,
                               double frame_w, double frame_h,
                               double patch_mean, double patch_std);

  /// Builds the pair feature vector between a track's last detections and
  /// a candidate. `prev` is the detection before `last` (pass `last` again
  /// for single-detection tracks; the velocity term is then zero).
  static nn::Tensor PairFeature(const track::Detection& prev,
                                const track::Detection& last,
                                const track::Detection& candidate, double fps,
                                double frame_w, double frame_h);

  /// Appearance statistics (mean, std) of a native-coordinate box inside a
  /// low-resolution render; used for both training and inference so the
  /// feature distributions match.
  static std::pair<double, double> AppearanceStats(
      const video::Image& raster, const geom::BBox& native_box,
      double native_w, double native_h);

  /// Zero hidden state for a new track.
  nn::Tensor InitialHidden() const;

  /// Inference: folds one detection feature into the hidden state. Uses
  /// the cache-free inference path; safe to call concurrently from many
  /// trackers sharing one trained net. The per-row reference that
  /// AdvanceBatch must reproduce (tests compare the two).
  nn::Tensor Advance(const nn::Tensor& hidden,
                     const nn::Tensor& det_feature) const;

  /// Inference: match probability (sigmoid of the logit) for a candidate
  /// against a track hidden state. Thread-safe like Advance. The per-pair
  /// reference that ScorePairs must reproduce (tests compare the two).
  double ScorePair(const nn::Tensor& hidden, const nn::Tensor& det_feature,
                   const nn::Tensor& pair_feature) const;

  /// Advance over n rows at once: folds row i of `det_features`
  /// (n, kDetFeatureDim) into row i of `hidden` (n, hidden_size) and
  /// returns the (n, hidden_size) new states, each row bit-identical to
  /// Advance on that row. Thread-safe like Advance.
  nn::Tensor AdvanceBatch(const nn::Tensor& hidden,
                          const nn::Tensor& det_features) const;

  /// A (track, detection) pair for ScorePairs: row indices into its
  /// `hidden` and `det_features` matrices.
  struct PairIndex {
    int track;
    int det;
  };

  /// ScorePair over one frame's pairs at once. `hidden` is (tracks,
  /// hidden_size), `det_features` is (detections, kDetFeatureDim), and
  /// `pair_features` is (pairs.size(), kPairFeatureDim) with row i
  /// belonging to pairs[i]; `pairs` must be non-empty. Returns one
  /// probability per pair, each bit-identical to ScorePair on the same
  /// rows: every detection is encoded once, and the matcher's first layer
  /// runs the track-only prefix of its accumulation chain once per track
  /// (DESIGN.md, "Tracker scoring"). Thread-safe like ScorePair.
  std::vector<double> ScorePairs(const nn::Tensor& hidden,
                                 const nn::Tensor& det_features,
                                 const std::vector<PairIndex>& pairs,
                                 const nn::Tensor& pair_features) const;

  /// One training example: a track prefix (already gap-subsampled, features
  /// built with their true t_elapsed), candidate detections in the next
  /// processed frame, and which candidate (if any) truly extends the track.
  struct Example {
    std::vector<nn::Tensor> prefix_features;
    std::vector<nn::Tensor> candidate_features;
    std::vector<nn::Tensor> candidate_pair_features;
    /// Index into candidates of the true continuation; -1 when the track
    /// ends here (all candidates are negatives).
    int positive_index = -1;
  };

  /// Runs forward + backward + Adam on one example; returns the loss.
  double TrainStep(const Example& example);

  int64_t train_steps() const { return optimizer_->steps_taken(); }

 private:
  static constexpr int kEncodedDim = 24;
  static constexpr int kHiddenSize = 32;
  /// Width of the matcher's hidden layer.
  static constexpr int kMatcherWidth = 32;

  nn::Tensor EncodeDet(const nn::Tensor& feature);
  nn::Tensor MatcherInput(const nn::Tensor& hidden, const nn::Tensor& encoded,
                          const nn::Tensor& pair_feature) const;

  nn::Sequential det_encoder_;
  std::unique_ptr<nn::GruCell> gru_;
  nn::Sequential matcher_;
  // matcher_'s two Linear layers (owned by matcher_), read by ScorePairs.
  const nn::Linear* matcher_in_ = nullptr;   // [h; e; p] -> kMatcherWidth.
  const nn::Linear* matcher_out_ = nullptr;  // kMatcherWidth -> 1 logit.
  std::unique_ptr<nn::Adam> optimizer_;
};

}  // namespace otif::models

#endif  // OTIF_MODELS_TRACKER_NET_H_
