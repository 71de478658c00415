#include "track/recurrent_tracker.h"

#include <algorithm>
#include <cmath>

#include "track/hungarian.h"
#include "util/logging.h"

namespace otif::track {

RecurrentTracker::RecurrentTracker(const models::TrackerNet* net,
                                   Options options)
    : net_(net), options_(options) {
  OTIF_CHECK(net != nullptr);
  OTIF_CHECK_GT(options_.fps, 0);
}

void RecurrentTracker::ProcessFrame(int frame,
                                    const FrameDetections& detections) {
  ProcessFrameWithAppearance(
      frame, detections,
      std::vector<std::pair<double, double>>(detections.size(), {0.5, 0.1}));
}

std::vector<int> RecurrentTracker::MatchDetections(
    const FrameDetections& detections, const nn::Tensor& det_features) {
  using models::TrackerNet;
  constexpr int kPairDim = TrackerNet::kPairFeatureDim;
  const int hidden_size = net_->hidden_size();
  const size_t n_tracks = active_.size();
  const size_t n_dets = detections.size();
  std::vector<int> det_for_track(n_tracks, -1);
  if (n_tracks == 0 || n_dets == 0) return det_for_track;

  // Cheap gate: skip pairs that moved implausibly far (more than half the
  // frame diagonal); keeps pair scoring near-linear.
  const double gate = 0.5 * std::sqrt(options_.frame_w * options_.frame_w +
                                      options_.frame_h * options_.frame_h);
  std::vector<TrackerNet::PairIndex> pairs;
  for (size_t t = 0; t < n_tracks; ++t) {
    const Detection& last = active_[t].track.detections.back();
    for (size_t d = 0; d < n_dets; ++d) {
      const double dist =
          last.box.Center().DistanceTo(detections[d].box.Center());
      if (dist > gate) continue;
      pairs.push_back({static_cast<int>(t), static_cast<int>(d)});
    }
  }

  std::vector<std::vector<double>> cost(n_tracks,
                                        std::vector<double>(n_dets, 1.0));
  if (!pairs.empty()) {
    // Score every gated pair of the frame in one batched pass.
    nn::Tensor hidden = nn::Tensor::Uninitialized(
        {static_cast<int>(n_tracks), hidden_size});
    for (size_t t = 0; t < n_tracks; ++t) {
      std::copy_n(active_[t].hidden.data(), hidden_size,
                  hidden.data() + t * hidden_size);
    }
    nn::Tensor pair_features = nn::Tensor::Uninitialized(
        {static_cast<int>(pairs.size()), kPairDim});
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto& dets_so_far =
          active_[static_cast<size_t>(pairs[i].track)].track.detections;
      const Detection& last = dets_so_far.back();
      const Detection& prev = dets_so_far.size() >= 2
                                  ? dets_so_far[dets_so_far.size() - 2]
                                  : last;
      const nn::Tensor f = TrackerNet::PairFeature(
          prev, last, detections[static_cast<size_t>(pairs[i].det)],
          options_.fps, options_.frame_w, options_.frame_h);
      std::copy_n(f.data(), kPairDim, pair_features.data() + i * kPairDim);
    }
    const std::vector<double> probs =
        net_->ScorePairs(hidden, det_features, pairs, pair_features);
    for (size_t i = 0; i < pairs.size(); ++i) {
      cost[static_cast<size_t>(pairs[i].track)]
          [static_cast<size_t>(pairs[i].det)] = 1.0 - probs[i];
    }
    pair_scores_ += static_cast<int64_t>(pairs.size());
  }
  det_for_track = SolveAssignment(cost);
  for (size_t t = 0; t < n_tracks; ++t) {
    const int d = det_for_track[t];
    if (d >= 0 &&
        cost[t][static_cast<size_t>(d)] > 1.0 - options_.match_threshold) {
      det_for_track[t] = -1;
    }
  }
  return det_for_track;
}

void RecurrentTracker::ProcessFrameWithAppearance(
    int frame, const FrameDetections& detections,
    const std::vector<std::pair<double, double>>& appearance) {
  OTIF_CHECK_GT(frame, last_processed_frame_);
  OTIF_CHECK_EQ(appearance.size(), detections.size());
  using models::TrackerNet;
  constexpr int kDetDim = TrackerNet::kDetFeatureDim;
  const int hidden_size = net_->hidden_size();

  const size_t n_tracks = active_.size();
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
      last_processed_frame_ >= 0 ? frame - last_processed_frame_ : 1;
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

  // GRU rows to advance in one batched step: each matched track, in track
  // order, with its detection's t_elapsed re-derived relative to the
  // track's own last detection; then one new track per unmatched
  // detection, in detection order, from the zero initial state.
  std::vector<char> det_used(n_dets, 0);
  size_t n_matched = 0;
  for (size_t t = 0; t < n_tracks; ++t) {
    if (det_for_track[t] < 0) continue;
    det_used[static_cast<size_t>(det_for_track[t])] = 1;
    ++n_matched;
  }
  std::vector<size_t> new_dets;
  for (size_t d = 0; d < n_dets; ++d) {
    if (!det_used[d]) new_dets.push_back(d);
  }
  const size_t n_rows = n_matched + new_dets.size();
  nn::Tensor advanced;
  if (n_rows > 0) {
    nn::Tensor features =
        nn::Tensor::Uninitialized({static_cast<int>(n_rows), kDetDim});
    nn::Tensor hidden = nn::Tensor::Zeros({static_cast<int>(n_rows),
                                           hidden_size});
    size_t row = 0;
    for (size_t t = 0; t < n_tracks; ++t) {
      const int d = det_for_track[t];
      if (d < 0) continue;
      const Detection& last = active_[t].track.detections.back();
      const nn::Tensor f =
          det_feature(static_cast<size_t>(d), frame - last.frame);
      std::copy_n(f.data(), kDetDim, features.data() + row * kDetDim);
      std::copy_n(active_[t].hidden.data(), hidden_size,
                  hidden.data() + row * hidden_size);
      ++row;
    }
    for (size_t d : new_dets) {
      std::copy_n(det_features.data() + d * kDetDim, kDetDim,
                  features.data() + row * kDetDim);
      ++row;
    }
    advanced = net_->AdvanceBatch(hidden, features);
  }

  size_t next_row = 0;
  for (size_t t = 0; t < n_tracks; ++t) {
    const int d = det_for_track[t];
    if (d >= 0) {
      std::copy_n(advanced.data() + next_row++ * hidden_size, hidden_size,
                  active_[t].hidden.data());
      active_[t].track.detections.push_back(
          detections[static_cast<size_t>(d)]);
      active_[t].misses = 0;
    } else {
      ++active_[t].misses;
    }
  }

  for (size_t t = active_.size(); t-- > 0;) {
    if (active_[t].misses > options_.max_misses) {
      finished_.push_back(std::move(active_[t].track));
      active_[t] = std::move(active_.back());
      active_.pop_back();
    }
  }

  for (size_t d : new_dets) {
    ActiveTrack at;
    at.track.id = next_id_++;
    at.track.cls = detections[d].cls;
    at.track.detections.push_back(detections[d]);
    at.hidden = nn::Tensor::Uninitialized({hidden_size});
    std::copy_n(advanced.data() + next_row++ * hidden_size, hidden_size,
                at.hidden.data());
    active_.push_back(std::move(at));
  }

  last_processed_frame_ = frame;
}

std::vector<Track> RecurrentTracker::Finish(int min_detections) {
  std::vector<Track> out;
  for (Track& t : finished_) {
    if (static_cast<int>(t.detections.size()) >= min_detections) {
      out.push_back(std::move(t));
    }
  }
  for (ActiveTrack& at : active_) {
    if (static_cast<int>(at.track.detections.size()) >= min_detections) {
      out.push_back(std::move(at.track));
    }
  }
  finished_.clear();
  active_.clear();
  last_processed_frame_ = -1;
  std::sort(out.begin(), out.end(),
            [](const Track& a, const Track& b) { return a.id < b.id; });
  return out;
}

}  // namespace otif::track
