#ifndef OTIF_MODELS_TRACKER_NET_H_
#define OTIF_MODELS_TRACKER_NET_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "track/types.h"
#include "util/cpu.h"
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

  /// What a pair's features are built from: a track's last detection,
  /// the one before it (`last` again for a single-detection track; the
  /// velocity term is then zero), and a candidate.
  struct PairInput {
    const track::Detection* prev;
    const track::Detection* last;
    const track::Detection* candidate;
  };

  /// The one definition of the pair features: writes input i's
  /// kPairFeatureDim features to out[i * row_stride, ...). First computes
  /// every row's four tanh and one log argument with the scalar double
  /// expressions, then evaluates them in one pass through the `isa`
  /// variant of TanhToFloats and ClampedLogToFloats, so every variant
  /// writes the bits of the scalar expressions (DESIGN.md, "Tracker
  /// scoring"). Requires isa <= PairFeatureIsa().
  static void WritePairFeatures(Isa isa, std::span<const PairInput> inputs,
                                double fps, double frame_w, double frame_h,
                                size_t row_stride, float* out);

  /// One pair's features (WritePairFeatures at PairFeatureIsa()), for
  /// training examples and ScorePair.
  static nn::Tensor PairFeature(const track::Detection& prev,
                                const track::Detection& last,
                                const track::Detection& candidate, double fps,
                                double frame_w, double frame_h);

  /// Size of the low-resolution render that training reads appearance
  /// statistics from. Inference renders this size only on frames the proxy
  /// did not score; on the others it reuses the proxy's render, whose size
  /// is the proxy resolution's.
  static constexpr int kAppearanceRasterW = 40;
  static constexpr int kAppearanceRasterH = 24;

  /// Appearance statistics (mean, std) of a native-coordinate box inside a
  /// low-resolution render; used for both training and inference.
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

  /// The weight matrices the batched paths multiply by, each transposed
  /// once into the layout their GEMMs read (the per-row paths and the
  /// layers' own batch paths transpose them on every call). A copy of the
  /// net's weights: take it after training, once per tracker
  /// (RecurrentTracker does), and pass it to AdvanceBatch and ScorePairs.
  struct BatchWeights {
    std::vector<float> encoder_in_t;   // Detection encoder, layer 1.
    std::vector<float> encoder_out_t;  // Detection encoder, layer 2.
    nn::GruCell::BatchWeights gru;
    std::vector<float> matcher_in_t;   // Matcher layer 1, [h; e; p] rows.
  };
  BatchWeights TransposedWeights() const;

  /// Advance over n rows at once: folds row i of `det_features`
  /// (n, kDetFeatureDim) into row i of `hidden` (n, hidden_size) and
  /// returns the (n, hidden_size) new states, each row bit-identical to
  /// Advance on that row. `weights` is TransposedWeights(). Thread-safe
  /// like Advance.
  nn::Tensor AdvanceBatch(const BatchWeights& weights,
                          const nn::Tensor& hidden,
                          const nn::Tensor& det_features) const;

  /// A (track, detection) pair for ScorePairs: row indices into its
  /// `hidden` and `det_features` matrices.
  struct PairIndex {
    int track;
    int det;
  };

  /// ScorePair over one frame's pairs at once. `hidden` is (tracks,
  /// hidden_size), `det_features` is (detections, kDetFeatureDim), and
  /// pair i's features are built from pair_inputs[i] (with `fps`,
  /// `frame_w` and `frame_h`, as PairFeature builds them); `pairs` must be
  /// non-empty. Returns one probability per pair, each bit-identical to
  /// ScorePair on the same rows and PairFeature of the same input: every
  /// detection is encoded once, the pair features are written straight
  /// into the matcher's input rows, and the matcher's first layer runs the
  /// track-only prefix of its accumulation chain once per track
  /// (DESIGN.md, "Tracker scoring"). `weights` is TransposedWeights().
  /// Thread-safe like ScorePair.
  std::vector<double> ScorePairs(const BatchWeights& weights,
                                 const nn::Tensor& hidden,
                                 const nn::Tensor& det_features,
                                 std::span<const PairIndex> pairs,
                                 std::span<const PairInput> pair_inputs,
                                 double fps, double frame_w,
                                 double frame_h) const;

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

  nn::Tensor MatcherInput(const nn::Tensor& hidden, const nn::Tensor& encoded,
                          const nn::Tensor& pair_feature) const;

  /// det_encoder_ over (n, kDetFeatureDim) rows with the transposed
  /// weights, each row bit-identical to det_encoder_.Infer on that row.
  nn::Tensor EncodeRows(const BatchWeights& weights,
                        const nn::Tensor& det_features) const;

  nn::Sequential det_encoder_;
  // det_encoder_'s layers (owned by det_encoder_), read by EncodeRows.
  const nn::Linear* encoder_in_ = nullptr;
  const nn::Relu* encoder_relu_ = nullptr;
  const nn::Linear* encoder_out_ = nullptr;
  std::unique_ptr<nn::GruCell> gru_;
  nn::Sequential matcher_;
  // matcher_'s two Linear layers (owned by matcher_), read by ScorePairs.
  const nn::Linear* matcher_in_ = nullptr;   // [h; e; p] -> kMatcherWidth.
  const nn::Linear* matcher_out_ = nullptr;  // kMatcherWidth -> 1 logit.
  std::unique_ptr<nn::Adam> optimizer_;
};

/// The tier the pair features' tanh and log run: CpuIsa() on an x86-64
/// glibc 2.35 build (whose libmvec has tanh; util/libmvec.h), kBaseline
/// otherwise.
Isa PairFeatureIsa();

/// out[i] = static_cast<float>(std::tanh(x[i])) for i < n, bit for bit.
/// kAvx2 and kAvx512 evaluate 4 and 8 values at a time with libmvec and
/// keep a lane only when the rounding test (util/libmvec.h) proves its
/// float; the other lanes, and a tail shorter than a vector, call
/// std::tanh. Returns how many values the rounding test sent to std::tanh
/// (0 for kBaseline). Requires isa <= PairFeatureIsa(). Exposed so tests
/// can feed the rounding test chosen values.
size_t TanhToFloats(Isa isa, const double* x, size_t n, float* out);

/// out[i] = static_cast<float>(std::clamp(std::log(x[i]), -2.0, 2.0)) for
/// i < n, the same way: the rounding test runs on the clamped value, which
/// is the one rounded to float.
size_t ClampedLogToFloats(Isa isa, const double* x, size_t n, float* out);

}  // namespace otif::models

#endif  // OTIF_MODELS_TRACKER_NET_H_
