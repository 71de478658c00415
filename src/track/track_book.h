#ifndef OTIF_TRACK_TRACK_BOOK_H_
#define OTIF_TRACK_TRACK_BOOK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "track/types.h"
#include "util/logging.h"

namespace otif::track {

/// The track lifecycle every tracker shares (paper Sec 3.4): each processed
/// frame either extends a track or counts a miss against it, a track
/// retires once its misses in a row pass the tracker's limit, and Finish
/// prunes tracks with too few detections. A tracker owns one book and keeps
/// only its matcher and its per-track `State`.
///
/// Per frame the tracker calls StartFrame, matches the active tracks
/// against the frame's detections, and hands the match to EndFrame, which
/// runs in this order (the order decides the output bits):
///   1. Matched tracks, in track order, let the tracker update their state,
///      append their detection and reset their misses. Every other track
///      counts a miss.
///   2. Tracks past the miss limit retire. The scan runs from the back and
///      moves the last track into each hole; the order this leaves is the
///      next frame's track order, so it also fixes the assignment solvers'
///      tie-breaks.
///   3. Each unmatched detection starts a track, in detection order, with
///      the next id and the state the tracker makes for it.
template <typename State>
class TrackBook {
 public:
  struct Entry {
    Track track;
    State state;
    int misses = 0;
  };

  /// A track retires after more than `max_misses` processed frames in a
  /// row without a match (so the tolerance in frames scales with the
  /// sampling gap).
  explicit TrackBook(int max_misses) : max_misses_(max_misses) {}

  /// Checks that `frame` comes after the last processed frame and that
  /// every detection is stamped with it. Returns the last processed frame,
  /// or -1 when the clip starts.
  int StartFrame(int frame, const FrameDetections& detections) {
    OTIF_CHECK_GT(frame, last_frame_);
    for (const Detection& d : detections) OTIF_CHECK_EQ(d.frame, frame);
    return std::exchange(last_frame_, frame);
  }

  /// The active tracks, in track order.
  std::span<Entry> active() { return active_; }
  size_t num_active() const { return active_.size(); }

  /// Marks the detections a match takes: entry d of the returned mask is 1
  /// when `det_for_track` (as EndFrame takes it) gives detection d to a
  /// track, and 0 when EndFrame will start a track from it. The mask lives
  /// in a buffer the book reuses, so a frame allocates none; it holds until
  /// the next MarkMatched or EndFrame.
  const std::vector<char>& MarkMatched(const std::vector<int>& det_for_track,
                                       size_t n_dets) {
    det_used_.assign(n_dets, 0);
    for (const int d : det_for_track) {
      if (d >= 0) det_used_[static_cast<size_t>(d)] = 1;
    }
    return det_used_;
  }

  /// Applies the frame's match: `det_for_track[t]` is the index in
  /// `detections` of active track t's match, or -1. `update(state,
  /// detection)` folds a match into its track's state (step 1);
  /// `start(detection)` returns a new track's state (step 3).
  template <typename Update, typename Start>
  void EndFrame(const FrameDetections& detections,
                const std::vector<int>& det_for_track, Update update,
                Start start) {
    OTIF_CHECK_EQ(det_for_track.size(), active_.size());
    const std::vector<char>& det_used =
        MarkMatched(det_for_track, detections.size());
    for (size_t t = 0; t < active_.size(); ++t) {
      Entry& e = active_[t];
      const int d = det_for_track[t];
      if (d < 0) {
        ++e.misses;
        continue;
      }
      const Detection& det = detections[static_cast<size_t>(d)];
      update(e.state, det);
      e.track.detections.push_back(det);
      e.misses = 0;
    }
    for (size_t t = active_.size(); t-- > 0;) {
      if (active_[t].misses > max_misses_) {
        retired_.push_back(std::move(active_[t].track));
        active_[t] = std::move(active_.back());
        active_.pop_back();
      }
    }
    for (size_t d = 0; d < detections.size(); ++d) {
      if (det_used[d]) continue;
      Entry e{Track{}, start(detections[d]), 0};
      e.track.id = next_id_++;
      e.track.cls = detections[d].cls;
      e.track.detections.push_back(detections[d]);
      active_.push_back(std::move(e));
    }
  }

  /// Returns the retired and then the active tracks with at least
  /// `min_detections` detections, sorted by id, and clears both lists for
  /// the next clip. Ids keep counting across clips.
  std::vector<Track> Finish(int min_detections) {
    std::vector<Track> out;
    for (Track& t : retired_) {
      if (static_cast<int>(t.detections.size()) >= min_detections) {
        out.push_back(std::move(t));
      }
    }
    for (Entry& e : active_) {
      if (static_cast<int>(e.track.detections.size()) >= min_detections) {
        out.push_back(std::move(e.track));
      }
    }
    retired_.clear();
    active_.clear();
    last_frame_ = -1;
    std::sort(out.begin(), out.end(),
              [](const Track& a, const Track& b) { return a.id < b.id; });
    return out;
  }

 private:
  int max_misses_;
  int64_t next_id_ = 0;
  int last_frame_ = -1;
  std::vector<Entry> active_;
  std::vector<Track> retired_;
  std::vector<char> det_used_;  // MarkMatched's mask.
};

}  // namespace otif::track

#endif  // OTIF_TRACK_TRACK_BOOK_H_
