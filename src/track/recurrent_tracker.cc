#include "track/recurrent_tracker.h"

#include <algorithm>
#include <cmath>

#include "track/hungarian.h"
#include "util/logging.h"

namespace otif::track {
namespace {

/// A track is dropped after this many processed frames without a match.
constexpr int kMaxMisses = 3;

/// Minimum match probability to accept an assignment.
constexpr double kMatchThreshold = 0.5;

const models::TrackerNet& NonNull(const models::TrackerNet* net) {
  OTIF_CHECK(net != nullptr);
  return *net;
}

}  // namespace

RecurrentTracker::RecurrentTracker(const models::TrackerNet* net,
                                   Options options)
    : net_(net),
      weights_(NonNull(net).TransposedWeights()),
      options_(options),
      book_(kMaxMisses) {
  OTIF_CHECK_GT(options_.fps, 0);
}

std::vector<int> RecurrentTracker::MatchDetections(
    const FrameDetections& detections, const nn::Tensor& det_features) {
  const int hidden_size = net_->hidden_size();
  const auto active = book_.active();
  const size_t n_tracks = active.size();
  const size_t n_dets = detections.size();
  std::vector<int> det_for_track(n_tracks, -1);
  if (n_tracks == 0 || n_dets == 0) return det_for_track;

  // Cheap gate: skip pairs that moved implausibly far (more than half the
  // frame diagonal); keeps pair scoring near-linear.
  const double gate = 0.5 * std::sqrt(options_.frame_w * options_.frame_w +
                                      options_.frame_h * options_.frame_h);
  pairs_.clear();
  pair_inputs_.clear();
  for (size_t t = 0; t < n_tracks; ++t) {
    const auto& dets_so_far = active[t].track.detections;
    const Detection& last = dets_so_far.back();
    const Detection& prev =
        dets_so_far.size() >= 2 ? dets_so_far[dets_so_far.size() - 2] : last;
    for (size_t d = 0; d < n_dets; ++d) {
      const double dist =
          last.box.Center().DistanceTo(detections[d].box.Center());
      if (dist > gate) continue;
      pairs_.push_back({static_cast<int>(t), static_cast<int>(d)});
      pair_inputs_.push_back({&prev, &last, &detections[d]});
    }
  }

  cost_.Reset(static_cast<int>(n_tracks), static_cast<int>(n_dets), 1.0);
  if (!pairs_.empty()) {
    // Score every gated pair of the frame in one batched pass.
    nn::Tensor hidden = nn::Tensor::Uninitialized(
        {static_cast<int>(n_tracks), hidden_size});
    for (size_t t = 0; t < n_tracks; ++t) {
      std::copy_n(active[t].state.data(), hidden_size,
                  hidden.data() + t * hidden_size);
    }
    const std::vector<double> probs =
        net_->ScorePairs(weights_, hidden, det_features, pairs_, pair_inputs_,
                         options_.fps, options_.frame_w, options_.frame_h);
    for (size_t i = 0; i < pairs_.size(); ++i) {
      cost_(pairs_[i].track, pairs_[i].det) = 1.0 - probs[i];
    }
    pair_scores_ += static_cast<int64_t>(pairs_.size());
  }
  det_for_track = SolveAssignment(cost_);
  for (size_t t = 0; t < n_tracks; ++t) {
    const int d = det_for_track[t];
    if (d >= 0 && cost_(static_cast<int>(t), d) > 1.0 - kMatchThreshold) {
      det_for_track[t] = -1;
    }
  }
  return det_for_track;
}

void RecurrentTracker::ProcessFrameWithAppearance(
    int frame, const FrameDetections& detections,
    const std::vector<std::pair<double, double>>& appearance) {
  const int previous_frame = book_.StartFrame(frame, detections);
  OTIF_CHECK_EQ(appearance.size(), detections.size());
  using models::TrackerNet;
  constexpr int kDetDim = TrackerNet::kDetFeatureDim;
  const int hidden_size = net_->hidden_size();

  const auto active = book_.active();
  const size_t n_tracks = active.size();
  const size_t n_dets = detections.size();
  auto det_feature = [&](size_t d, double t_elapsed_frames) {
    return TrackerNet::DetFeature(detections[d], t_elapsed_frames,
                                  options_.fps, options_.frame_w,
                                  options_.frame_h, appearance[d].first,
                                  appearance[d].second);
  };

  // Detection features, one row per detection: t_elapsed is the gap since
  // the previously processed frame (paper Sec 3.4 "Training", last
  // paragraph). The batch calls below take no zero-row matrix.
  const double t_elapsed =
      previous_frame >= 0 ? frame - previous_frame : 1;
  nn::Tensor det_features;
  if (n_dets > 0) {
    det_features =
        nn::Tensor::Uninitialized({static_cast<int>(n_dets), kDetDim});
    for (size_t d = 0; d < n_dets; ++d) {
      const nn::Tensor f = det_feature(d, t_elapsed);
      std::copy_n(f.data(), kDetDim, det_features.data() + d * kDetDim);
    }
  }

  const std::vector<int> det_for_track =
      MatchDetections(detections, det_features);

  // GRU rows to advance in one batched step, one per detection: each
  // matched track, in track order, with its detection's t_elapsed
  // re-derived relative to the track's own last detection; then one new
  // track per unmatched detection, in detection order, from the zero
  // initial state.
  const std::vector<char>& det_used = book_.MarkMatched(det_for_track, n_dets);
  nn::Tensor advanced;
  if (n_dets > 0) {
    nn::Tensor features =
        nn::Tensor::Uninitialized({static_cast<int>(n_dets), kDetDim});
    nn::Tensor hidden = nn::Tensor::Zeros({static_cast<int>(n_dets),
                                           hidden_size});
    size_t row = 0;
    for (size_t t = 0; t < n_tracks; ++t) {
      const int d = det_for_track[t];
      if (d < 0) continue;
      const Detection& last = active[t].track.detections.back();
      const nn::Tensor f =
          det_feature(static_cast<size_t>(d), frame - last.frame);
      std::copy_n(f.data(), kDetDim, features.data() + row * kDetDim);
      std::copy_n(active[t].state.data(), hidden_size,
                  hidden.data() + row * hidden_size);
      ++row;
    }
    for (size_t d = 0; d < n_dets; ++d) {
      if (det_used[d]) continue;
      std::copy_n(det_features.data() + d * kDetDim, kDetDim,
                  features.data() + row * kDetDim);
      ++row;
    }
    advanced = net_->AdvanceBatch(weights_, hidden, features);
  }

  // The book takes the rows in the order they were built: matched tracks
  // in track order, then new tracks in detection order.
  size_t next_row = 0;
  const auto take_row = [&](nn::Tensor& hidden) {
    std::copy_n(advanced.data() + next_row++ * hidden_size, hidden_size,
                hidden.data());
  };
  book_.EndFrame(
      detections, det_for_track,
      [&](nn::Tensor& hidden, const Detection&) { take_row(hidden); },
      [&](const Detection&) {
        nn::Tensor hidden = nn::Tensor::Uninitialized({hidden_size});
        take_row(hidden);
        return hidden;
      });
}

}  // namespace otif::track
