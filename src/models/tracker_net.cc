#include "models/tracker_net.h"

#include <algorithm>
#include <cmath>

#include "nn/arena.h"
#include "nn/gemm.h"
#include "util/logging.h"
#include "util/rng.h"

namespace otif::models {
namespace {

// Elapsed-time normalization: cap at 4 seconds, scale to ~[0, 1].
double NormElapsedSec(double frames, double fps) {
  return std::min(frames / fps, 4.0) / 4.0;
}

}  // namespace

TrackerNet::TrackerNet(uint64_t seed) {
  Rng rng(seed);
  det_encoder_.Add(std::make_unique<nn::Linear>(kDetFeatureDim, kEncodedDim,
                                                &rng));
  det_encoder_.Add(std::make_unique<nn::Relu>());
  det_encoder_.Add(std::make_unique<nn::Linear>(kEncodedDim, kEncodedDim,
                                                &rng));
  gru_ = std::make_unique<nn::GruCell>(kEncodedDim, kHiddenSize, &rng);
  auto matcher_in = std::make_unique<nn::Linear>(
      kHiddenSize + kEncodedDim + kPairFeatureDim, kMatcherWidth, &rng);
  auto matcher_out = std::make_unique<nn::Linear>(kMatcherWidth, 1, &rng);
  matcher_in_ = matcher_in.get();
  matcher_out_ = matcher_out.get();
  matcher_.Add(std::move(matcher_in));
  matcher_.Add(std::make_unique<nn::Relu>());
  matcher_.Add(std::move(matcher_out));

  std::vector<nn::Parameter*> params;
  det_encoder_.CollectParameters(&params);
  gru_->CollectParameters(&params);
  matcher_.CollectParameters(&params);
  nn::Adam::Options opts;
  opts.learning_rate = 1e-3;
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), opts);
}

nn::Tensor TrackerNet::DetFeature(const track::Detection& d,
                                  double t_elapsed_frames, double fps,
                                  double frame_w, double frame_h,
                                  double patch_mean, double patch_std) {
  OTIF_CHECK_GT(fps, 0);
  nn::Tensor f({kDetFeatureDim});
  f[0] = static_cast<float>(d.box.cx / frame_w);
  f[1] = static_cast<float>(d.box.cy / frame_h);
  f[2] = static_cast<float>(d.box.w / frame_w);
  f[3] = static_cast<float>(d.box.h / frame_h);
  f[4] = static_cast<float>(NormElapsedSec(t_elapsed_frames, fps));
  f[5] = static_cast<float>(patch_mean);
  f[6] = static_cast<float>(patch_std);
  f[7] = static_cast<float>(static_cast<int>(d.cls)) / 3.0f;
  return f;
}

nn::Tensor TrackerNet::PairFeature(const track::Detection& prev,
                                   const track::Detection& last,
                                   const track::Detection& candidate,
                                   double fps, double frame_w,
                                   double frame_h) {
  OTIF_CHECK_GT(fps, 0);
  const double dt_sec =
      std::max(1.0, static_cast<double>(candidate.frame - last.frame)) / fps;
  nn::Tensor f({kPairFeatureDim});
  // Displacement in frame-widths per second, squashed to a stable range.
  f[0] = static_cast<float>(
      std::tanh((candidate.box.cx - last.box.cx) / (frame_w * dt_sec) * 4.0));
  f[1] = static_cast<float>(
      std::tanh((candidate.box.cy - last.box.cy) / (frame_h * dt_sec) * 4.0));
  f[2] = static_cast<float>(last.box.Iou(candidate.box));
  const double size_ratio =
      std::sqrt(std::max(1.0, candidate.box.Area()) /
                std::max(1.0, last.box.Area()));
  f[3] = static_cast<float>(std::clamp(std::log(size_ratio), -2.0, 2.0));
  f[4] = static_cast<float>(std::min(dt_sec, 4.0) / 4.0);
  // Constant-velocity extrapolation residual: predicted position of the
  // track at the candidate's frame, from the last two detections.
  double pred_cx = last.box.cx, pred_cy = last.box.cy;
  const int prev_span = last.frame - prev.frame;
  if (prev_span > 0) {
    const double frames_ahead = candidate.frame - last.frame;
    pred_cx += (last.box.cx - prev.box.cx) / prev_span * frames_ahead;
    pred_cy += (last.box.cy - prev.box.cy) / prev_span * frames_ahead;
  }
  const double size = std::max(4.0, std::sqrt(last.box.Area()));
  f[5] = static_cast<float>(
      std::tanh((candidate.box.cx - pred_cx) / (size * 2.0)));
  f[6] = static_cast<float>(
      std::tanh((candidate.box.cy - pred_cy) / (size * 2.0)));
  return f;
}

std::pair<double, double> TrackerNet::AppearanceStats(
    const video::Image& raster, const geom::BBox& native_box, double native_w,
    double native_h) {
  const double sx = raster.width() / native_w;
  const double sy = raster.height() / native_h;
  const int x0 = std::clamp(static_cast<int>(native_box.Left() * sx), 0,
                            raster.width() - 1);
  const int x1 = std::clamp(static_cast<int>(native_box.Right() * sx), x0,
                            raster.width() - 1);
  const int y0 = std::clamp(static_cast<int>(native_box.Top() * sy), 0,
                            raster.height() - 1);
  const int y1 = std::clamp(static_cast<int>(native_box.Bottom() * sy), y0,
                            raster.height() - 1);
  double sum = 0.0, sum_sq = 0.0;
  int count = 0;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double v = raster.at(x, y);
      sum += v;
      sum_sq += v * v;
      ++count;
    }
  }
  if (count == 0) return {0.5, 0.1};
  const double mean = sum / count;
  const double var = std::max(0.0, sum_sq / count - mean * mean);
  return {mean, std::sqrt(var)};
}

nn::Tensor TrackerNet::InitialHidden() const {
  return nn::Tensor::Zeros({kHiddenSize});
}

nn::Tensor TrackerNet::EncodeDet(const nn::Tensor& feature) {
  OTIF_CHECK_EQ(feature.size(), kDetFeatureDim);
  return det_encoder_.Forward(feature);
}

nn::Tensor TrackerNet::MatcherInput(const nn::Tensor& hidden,
                                    const nn::Tensor& encoded,
                                    const nn::Tensor& pair_feature) const {
  OTIF_CHECK_EQ(hidden.size(), kHiddenSize);
  OTIF_CHECK_EQ(encoded.size(), kEncodedDim);
  OTIF_CHECK_EQ(pair_feature.size(), kPairFeatureDim);
  nn::Tensor in({kHiddenSize + kEncodedDim + kPairFeatureDim});
  int64_t k = 0;
  for (int64_t i = 0; i < hidden.size(); ++i) in[k++] = hidden[i];
  for (int64_t i = 0; i < encoded.size(); ++i) in[k++] = encoded[i];
  for (int64_t i = 0; i < pair_feature.size(); ++i) in[k++] = pair_feature[i];
  return in;
}

nn::Tensor TrackerNet::Advance(const nn::Tensor& hidden,
                               const nn::Tensor& det_feature) const {
  OTIF_CHECK_EQ(det_feature.size(), kDetFeatureDim);
  return gru_->StepInfer(det_encoder_.Infer(det_feature), hidden);
}

double TrackerNet::ScorePair(const nn::Tensor& hidden,
                             const nn::Tensor& det_feature,
                             const nn::Tensor& pair_feature) const {
  OTIF_CHECK_EQ(det_feature.size(), kDetFeatureDim);
  nn::Tensor encoded = det_encoder_.Infer(det_feature);
  nn::Tensor logit =
      matcher_.Infer(MatcherInput(hidden, encoded, pair_feature));
  return nn::StableSigmoid(logit[0]);
}

nn::Tensor TrackerNet::AdvanceBatch(const nn::Tensor& hidden,
                                    const nn::Tensor& det_features) const {
  OTIF_CHECK_EQ(det_features.ndim(), 2);
  OTIF_CHECK_EQ(det_features.dim(1), kDetFeatureDim);
  return gru_->StepInferBatch(det_encoder_.Infer(det_features), hidden);
}

std::vector<double> TrackerNet::ScorePairs(
    const nn::Tensor& hidden, const nn::Tensor& det_features,
    const std::vector<PairIndex>& pairs,
    const nn::Tensor& pair_features) const {
  OTIF_CHECK(!pairs.empty());
  OTIF_CHECK_EQ(hidden.ndim(), 2);
  OTIF_CHECK_EQ(hidden.dim(1), kHiddenSize);
  OTIF_CHECK_EQ(det_features.ndim(), 2);
  OTIF_CHECK_EQ(det_features.dim(1), kDetFeatureDim);
  OTIF_CHECK_EQ(pair_features.ndim(), 2);
  OTIF_CHECK_EQ(pair_features.dim(0), static_cast<int>(pairs.size()));
  OTIF_CHECK_EQ(pair_features.dim(1), kPairFeatureDim);
  const int n_tracks = hidden.dim(0);
  const int n_dets = det_features.dim(0);
  const int n_pairs = static_cast<int>(pairs.size());
  constexpr int kMatcherIn = kHiddenSize + kEncodedDim + kPairFeatureDim;
  constexpr int kDetPairDim = kEncodedDim + kPairFeatureDim;

  // Each row is bit-identical to EncodeDet's 1-D path on that feature.
  const nn::Tensor encoded = det_encoder_.Infer(det_features);

  nn::ScratchArena& arena = nn::ScratchArena::ThreadLocal();
  nn::ScratchScope scope(arena);
  // The first layer's weight transposed, (kMatcherIn x kMatcherWidth): its
  // first kHiddenSize rows multiply h, the remaining rows [e; p].
  const float* w_in = matcher_in_->weight().data();
  float* w_in_t =
      arena.Alloc(static_cast<size_t>(kMatcherIn) * kMatcherWidth);
  for (int o = 0; o < kMatcherWidth; ++o) {
    for (int i = 0; i < kMatcherIn; ++i) {
      w_in_t[static_cast<size_t>(i) * kMatcherWidth + o] =
          w_in[static_cast<size_t>(o) * kMatcherIn + i];
    }
  }

  // The 1-D path's first layer is one chain per output, over
  // [h; e; p] in order: bias + W_h h, then + W_e e, then + W_p p. Its
  // prefix depends on the track alone, so compute it once per track...
  float* prefix = arena.Alloc(static_cast<size_t>(n_tracks) * kMatcherWidth);
  nn::GemmBias(n_tracks, kMatcherWidth, kHiddenSize, hidden.data(), w_in_t,
               nullptr, matcher_in_->bias().data(), prefix);
  // ...then seed each pair's chain with its track's prefix and continue it
  // over the pair's [e; p] row.
  float* act = arena.Alloc(static_cast<size_t>(n_pairs) * kMatcherWidth);
  float* det_pair = arena.Alloc(static_cast<size_t>(n_pairs) * kDetPairDim);
  for (int i = 0; i < n_pairs; ++i) {
    const PairIndex& pair = pairs[static_cast<size_t>(i)];
    OTIF_CHECK(pair.track >= 0 && pair.track < n_tracks);
    OTIF_CHECK(pair.det >= 0 && pair.det < n_dets);
    std::copy_n(prefix + static_cast<size_t>(pair.track) * kMatcherWidth,
                kMatcherWidth, act + static_cast<size_t>(i) * kMatcherWidth);
    float* row = det_pair + static_cast<size_t>(i) * kDetPairDim;
    std::copy_n(encoded.data() + static_cast<size_t>(pair.det) * kEncodedDim,
                kEncodedDim, row);
    std::copy_n(pair_features.data() +
                    static_cast<size_t>(i) * kPairFeatureDim,
                kPairFeatureDim, row + kEncodedDim);
  }
  nn::GemmAccumulate(n_pairs, kMatcherWidth, kDetPairDim, det_pair,
                     w_in_t + static_cast<size_t>(kHiddenSize) * kMatcherWidth,
                     act);
  const size_t act_size = static_cast<size_t>(n_pairs) * kMatcherWidth;
  for (size_t i = 0; i < act_size; ++i) act[i] = std::max(0.0f, act[i]);

  // Output layer: its (1 x kMatcherWidth) weight is already the
  // (kMatcherWidth x 1) B operand.
  float* logits = arena.Alloc(static_cast<size_t>(n_pairs));
  nn::GemmBias(n_pairs, 1, kMatcherWidth, act, matcher_out_->weight().data(),
               nullptr, matcher_out_->bias().data(), logits);
  std::vector<double> probs(static_cast<size_t>(n_pairs));
  for (int i = 0; i < n_pairs; ++i) {
    probs[static_cast<size_t>(i)] = nn::StableSigmoid(logits[i]);
  }
  return probs;
}

double TrackerNet::TrainStep(const Example& example) {
  OTIF_CHECK(!example.prefix_features.empty());
  OTIF_CHECK_EQ(example.candidate_features.size(),
                example.candidate_pair_features.size());
  if (example.candidate_features.empty()) return 0.0;
  OTIF_CHECK_LT(example.positive_index,
                static_cast<int>(example.candidate_features.size()));

  // Forward: encode prefix detections, fold through the GRU.
  const size_t prefix_len = example.prefix_features.size();
  nn::Tensor h = InitialHidden();
  for (const nn::Tensor& f : example.prefix_features) {
    h = gru_->Step(det_encoder_.Forward(f), h);
  }
  // Encode candidates and score them against the track features.
  const size_t num_cand = example.candidate_features.size();
  std::vector<nn::Tensor> encoded(num_cand);
  std::vector<nn::Tensor> logits(num_cand);
  for (size_t c = 0; c < num_cand; ++c) {
    encoded[c] = det_encoder_.Forward(example.candidate_features[c]);
    logits[c] = matcher_.Forward(
        MatcherInput(h, encoded[c], example.candidate_pair_features[c]));
  }

  // Loss: BCE per candidate, with the positive and the negative set
  // weighted equally. Plain averaging would give the single positive a
  // 1/k weight, biasing all match scores toward zero and breaking the
  // absolute calibration that the match threshold relies on.
  const bool has_positive = example.positive_index >= 0;
  const int num_neg =
      static_cast<int>(num_cand) - (has_positive ? 1 : 0);
  double loss = 0.0;
  std::vector<nn::Tensor> grad_logits(num_cand);
  for (size_t c = 0; c < num_cand; ++c) {
    const bool is_positive =
        static_cast<int>(c) == example.positive_index;
    nn::Tensor target({1});
    target[0] = is_positive ? 1.0f : 0.0f;
    nn::Tensor grad;
    const double l = nn::BceWithLogits(logits[c], target, nullptr, &grad);
    double weight;
    if (!has_positive) {
      weight = 1.0 / num_cand;
    } else if (is_positive) {
      weight = num_neg > 0 ? 0.5 : 1.0;
    } else {
      weight = 0.5 / num_neg;
    }
    loss += weight * l;
    grad.Scale(static_cast<float>(weight));
    grad_logits[c] = std::move(grad);
  }

  // Backward, strictly LIFO: matcher + candidate encoders in reverse order,
  // accumulating the track-feature gradient; then back through the GRU and
  // the prefix encoders.
  nn::Tensor grad_h = nn::Tensor::Zeros({kHiddenSize});
  for (size_t c = num_cand; c-- > 0;) {
    nn::Tensor grad_in = matcher_.Backward(grad_logits[c]);
    // Split the concatenated gradient.
    nn::Tensor grad_encoded({kEncodedDim});
    for (int64_t i = 0; i < kHiddenSize; ++i) grad_h[i] += grad_in[i];
    for (int64_t i = 0; i < kEncodedDim; ++i) {
      grad_encoded[i] = grad_in[kHiddenSize + i];
    }
    det_encoder_.Backward(grad_encoded);  // Pops candidate c's cache.
  }
  for (size_t s = prefix_len; s-- > 0;) {
    auto [grad_x, grad_h_prev] = gru_->StepBackward(grad_h);
    det_encoder_.Backward(grad_x);  // Pops prefix s's cache.
    grad_h = std::move(grad_h_prev);
  }
  optimizer_->Step();
  return loss;
}

}  // namespace otif::models
