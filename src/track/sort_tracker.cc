#include "track/sort_tracker.h"

#include <algorithm>

#include "track/hungarian.h"
#include "util/logging.h"

namespace otif::track {
namespace {

/// A track is dropped after this many *processed frames* without a match
/// (so the tolerance in frames scales with the sampling gap).
constexpr int kMaxMisses = 3;

/// Minimum IoU between a predicted box and a detection to allow a match.
constexpr double kIouThreshold = 0.25;

}  // namespace

void SortTracker::ProcessFrame(int frame, const FrameDetections& detections) {
  OTIF_CHECK_GT(frame, last_processed_frame_);
  for (const Detection& d : detections) OTIF_CHECK_EQ(d.frame, frame);

  // Predict all active tracks forward to the current frame.
  for (ActiveTrack& at : active_) {
    at.filter.Predict(frame - at.last_frame);
  }

  // Assignment on negative IoU (Hungarian minimizes cost).
  const size_t n_tracks = active_.size();
  const size_t n_dets = detections.size();
  std::vector<int> det_for_track(n_tracks, -1);
  if (n_tracks > 0 && n_dets > 0) {
    std::vector<std::vector<double>> cost(
        n_tracks, std::vector<double>(n_dets, 1.0));
    for (size_t t = 0; t < n_tracks; ++t) {
      const geom::BBox predicted = active_[t].filter.StateBox();
      for (size_t d = 0; d < n_dets; ++d) {
        cost[t][d] = 1.0 - predicted.Iou(detections[d].box);
      }
    }
    det_for_track = SolveAssignment(cost);
    // Reject matches below the IoU threshold.
    for (size_t t = 0; t < n_tracks; ++t) {
      const int d = det_for_track[t];
      if (d >= 0 && cost[t][static_cast<size_t>(d)] > 1.0 - kIouThreshold) {
        det_for_track[t] = -1;
      }
    }
  }

  std::vector<char> det_used(n_dets, 0);
  for (size_t t = 0; t < n_tracks; ++t) {
    const int d = det_for_track[t];
    if (d >= 0) {
      det_used[static_cast<size_t>(d)] = 1;
      active_[t].filter.Update(detections[static_cast<size_t>(d)].box);
      active_[t].track.detections.push_back(
          detections[static_cast<size_t>(d)]);
      active_[t].misses = 0;
      active_[t].last_frame = frame;
    } else {
      ++active_[t].misses;
    }
  }

  // Retire stale tracks.
  for (size_t t = active_.size(); t-- > 0;) {
    if (active_[t].misses > kMaxMisses) {
      finished_.push_back(std::move(active_[t].track));
      active_[t] = std::move(active_.back());
      active_.pop_back();
    }
  }

  // New tracks for unmatched detections.
  for (size_t d = 0; d < n_dets; ++d) {
    if (det_used[d]) continue;
    ActiveTrack at{Track{}, KalmanBoxFilter(detections[d].box), 0, frame};
    at.track.id = next_id_++;
    at.track.cls = detections[d].cls;
    at.track.detections.push_back(detections[d]);
    active_.push_back(std::move(at));
  }

  last_processed_frame_ = frame;
}

std::vector<Track> SortTracker::Finish(int min_detections) {
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
