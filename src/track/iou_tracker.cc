#include "track/iou_tracker.h"

#include <algorithm>
#include <cmath>

#include "track/hungarian.h"
#include "util/logging.h"

namespace otif::track {
namespace {

/// The greedy matcher takes pairs whose cost is below 1 - kIouThreshold / 2.
constexpr double kIouThreshold = 0.1;

}  // namespace

IouTracker::IouTracker(Options options) : options_(options) {}

void IouTracker::ProcessFrame(int frame, const FrameDetections& detections) {
  OTIF_CHECK_GT(frame, last_processed_frame_);
  const size_t n_tracks = active_.size();
  const size_t n_dets = detections.size();
  const double diag = std::sqrt(options_.frame_w * options_.frame_w +
                                options_.frame_h * options_.frame_h);

  std::vector<int> det_for_track(n_tracks, -1);
  if (n_tracks > 0 && n_dets > 0) {
    std::vector<std::vector<double>> cost(
        n_tracks, std::vector<double>(n_dets, 2.0));
    for (size_t t = 0; t < n_tracks; ++t) {
      const Detection& last = active_[t].track.detections.back();
      for (size_t d = 0; d < n_dets; ++d) {
        const double shift =
            last.box.Center().DistanceTo(detections[d].box.Center());
        if (shift > options_.max_center_shift_frac * diag) continue;
        const double iou = last.box.Iou(detections[d].box);
        // Cost mixes IoU and normalized displacement so matching still
        // works when boxes at reduced rates no longer overlap.
        cost[t][d] = (1.0 - iou) * 0.5 + (shift / diag) * 0.5;
      }
    }
    det_for_track = GreedyAssignment(cost, 1.0 - kIouThreshold * 0.5);
  }

  std::vector<char> det_used(n_dets, 0);
  for (size_t t = 0; t < n_tracks; ++t) {
    const int d = det_for_track[t];
    if (d >= 0) {
      det_used[static_cast<size_t>(d)] = 1;
      active_[t].track.detections.push_back(detections[static_cast<size_t>(d)]);
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
  for (size_t d = 0; d < n_dets; ++d) {
    if (det_used[d]) continue;
    ActiveTrack at;
    at.track.id = next_id_++;
    at.track.cls = detections[d].cls;
    at.track.detections.push_back(detections[d]);
    active_.push_back(std::move(at));
  }
  last_processed_frame_ = frame;
}

std::vector<Track> IouTracker::Finish(int min_detections) {
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
