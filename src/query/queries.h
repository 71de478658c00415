#ifndef OTIF_QUERY_QUERIES_H_
#define OTIF_QUERY_QUERIES_H_

#include <map>
#include <string>
#include <vector>

#include "geom/geometry.h"
#include "sim/dataset.h"
#include "sim/world.h"
#include "track/types.h"

namespace otif::query {

/// --- Object track queries (paper Sec 4.1) --------------------------------

/// Ground-truth number of unique objects of non-pedestrian classes visible
/// for at least `min_frames` frames (the "track count" query target).
int GroundTruthVehicleCount(const sim::Clip& clip, int min_frames);

/// Number of extracted tracks of non-pedestrian classes (cars, buses,
/// trucks) lasting at least `min_duration_frames`.
int CountVehicleTracks(const std::vector<track::Track>& tracks,
                       int min_duration_frames);

/// Ground-truth per-path-label counts (path breakdown query target):
/// objects of non-pedestrian classes that covered at least `min_coverage`
/// of their spawn path's length while visible.
std::map<std::string, int> GroundTruthPathCounts(const sim::Clip& clip,
                                                 double min_coverage);

/// Classifies each extracted vehicle track to the nearest dataset path by
/// the paper's directional polyline distance and returns per-label counts.
/// Tracks farther than `max_distance` (native px) from every path count
/// toward no label.
std::map<std::string, int> ClassifyTracksByPath(
    const std::vector<track::Track>& tracks, const sim::DatasetSpec& spec,
    double max_distance);

/// Mean per-label count accuracy between estimated and ground-truth
/// breakdowns (labels missing on either side count as zero).
double PathBreakdownAccuracy(const std::map<std::string, int>& estimated,
                             const std::map<std::string, int>& ground_truth);

/// Tracks decelerating at or above `decel_mps2` (hard braking, intro query
/// 1). Speeds are derived from detection displacement over time; returns
/// ids of qualifying tracks.
std::vector<int64_t> FindHardBrakingTracks(
    const std::vector<track::Track>& tracks, const sim::DatasetSpec& spec,
    double decel_mps2);

/// --- Frame-level limit queries (paper Sec 4.2) ---------------------------

/// Frame predicate interface: does this frame's set of (vehicle) boxes
/// satisfy the query?
class FramePredicate {
 public:
  virtual ~FramePredicate() = default;
  virtual bool Matches(const std::vector<geom::BBox>& boxes) const = 0;
};

/// "At least N objects" (UAV, Tokyo).
class CountPredicate : public FramePredicate {
 public:
  explicit CountPredicate(int n) : n_(n) {}
  bool Matches(const std::vector<geom::BBox>& boxes) const override;

 private:
  int n_;
};

/// "At least N objects inside a polygon region" (Jackson, Caldot1).
class RegionPredicate : public FramePredicate {
 public:
  RegionPredicate(geom::Polygon region, int n)
      : region_(std::move(region)), n_(n) {}
  bool Matches(const std::vector<geom::BBox>& boxes) const override;

 private:
  geom::Polygon region_;
  int n_;
};

/// "At least N objects within a circular cluster of radius R" (Warsaw,
/// Amsterdam hot spot queries).
class HotSpotPredicate : public FramePredicate {
 public:
  HotSpotPredicate(double radius, int n) : radius_(radius), n_(n) {}
  bool Matches(const std::vector<geom::BBox>& boxes) const override;

 private:
  double radius_;
  int n_;
};

/// Boxes of vehicle tracks visible at `frame` (interpolated between a
/// track's detections; tracks outside their span do not contribute).
std::vector<geom::BBox> VehicleBoxesAt(const std::vector<track::Track>& tracks,
                                       int frame);

/// Executes a frame-level limit query over extracted tracks: scans the
/// first clip_frames[c] frames of each clip c, scores matches by the
/// minimum duration of the visible tracks (OTIF picks frames "where the
/// visible tracks have the highest minimum duration", Sec 4.2), and returns
/// up to `limit` matching (clip index, frame) pairs, best first (ties by
/// clip, then frame), frames of one clip at least `min_separation_frames`
/// apart.
std::vector<std::pair<int, int>> ExecuteLimitQueryMultiClip(
    const std::vector<std::vector<track::Track>>& tracks_per_clip,
    const FramePredicate& predicate, const std::vector<int>& clip_frames,
    int limit, int min_separation_frames);

/// Ground-truth check: does the clip's frame satisfy the predicate (using
/// simulator ground truth, vehicles only)?
bool GroundTruthMatches(const sim::Clip& clip, int frame,
                        const FramePredicate& predicate);

/// Fraction of produced (clip index, frame) pairs, as returned by
/// ExecuteLimitQueryMultiClip, whose ground truth in `clips` satisfies the
/// predicate (the frame-level query accuracy from Sec 4.2). Returns 1 for
/// no output.
double LimitQueryAccuracy(const std::vector<sim::Clip>& clips,
                          const std::vector<std::pair<int, int>>& frames,
                          const FramePredicate& predicate);

}  // namespace otif::query

#endif  // OTIF_QUERY_QUERIES_H_
