#include "query/queries.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/logging.h"

namespace otif::query {
namespace {

bool IsVehicle(track::ObjectClass cls) {
  return cls != track::ObjectClass::kPedestrian;
}

constexpr int kPathSamples = 20;

}  // namespace

int GroundTruthVehicleCount(const sim::Clip& clip, int min_frames) {
  int count = 0;
  for (const sim::GtObject& obj : clip.objects()) {
    if (!IsVehicle(obj.cls)) continue;
    if (static_cast<int>(obj.states.size()) >= min_frames) ++count;
  }
  return count;
}

int CountVehicleTracks(const std::vector<track::Track>& tracks,
                       int min_duration_frames) {
  int count = 0;
  for (const track::Track& t : tracks) {
    if (!IsVehicle(t.cls) || t.empty()) continue;
    if (t.DurationFrames() >= min_duration_frames) ++count;
  }
  return count;
}

std::map<std::string, int> GroundTruthPathCounts(const sim::Clip& clip,
                                                 double min_coverage) {
  std::map<std::string, int> counts;
  const auto& paths = clip.spec().paths;
  // Initialize all labels so zero counts are visible to the metric.
  for (const sim::SpawnPath& p : paths) counts[p.label] = 0;
  for (const sim::GtObject& obj : clip.objects()) {
    if (!IsVehicle(obj.cls) || obj.states.empty()) continue;
    const sim::SpawnPath& path = paths[static_cast<size_t>(obj.path_index)];
    // Fraction of the path length the object covered while visible.
    const double path_len = geom::PolylineLength(path.waypoints);
    if (path_len <= 0) continue;
    const double covered =
        obj.states.back().box.Center().DistanceTo(
            obj.states.front().box.Center());
    if (covered >= min_coverage * path_len) {
      counts[path.label] += 1;
    }
  }
  return counts;
}

std::map<std::string, int> ClassifyTracksByPath(
    const std::vector<track::Track>& tracks, const sim::DatasetSpec& spec,
    double max_distance) {
  std::map<std::string, int> counts;
  for (const sim::SpawnPath& p : spec.paths) counts[p.label] = 0;
  for (const track::Track& t : tracks) {
    if (!IsVehicle(t.cls) || t.detections.size() < 2) continue;
    const std::vector<geom::Point> samples =
        geom::ResamplePolyline(t.CenterPolyline(), kPathSamples);
    const geom::Point travel =
        samples.back() - samples.front();
    const double travel_norm = travel.Norm();
    double best = max_distance;
    int best_idx = -1;
    for (size_t p = 0; p < spec.paths.size(); ++p) {
      const std::vector<geom::Point>& ref = spec.paths[p].waypoints;
      // Mirror the ground truth's coverage requirement: fragments shorter
      // than ~a third of the path do not count toward the breakdown.
      if (travel_norm < 0.3 * geom::PolylineLength(ref)) continue;
      // Tracks may cover only part of the path (late entry, clip end, or
      // reduced-rate truncation), so score by the mean distance of track
      // samples to the reference *curve* rather than index-aligned points.
      double sum = 0.0;
      for (const geom::Point& s : samples) {
        sum += geom::DistanceToPolyline(s, ref);
      }
      double d = sum / kPathSamples;
      // Direction consistency separates opposite lanes sharing geometry:
      // compare travel direction against the path direction near the
      // track's midpoint.
      if (travel_norm > 1e-6) {
        const geom::Point dir = geom::DirectionAlong(ref, 0.5);
        const double align = travel.Dot(dir) / travel_norm;
        if (align <= 0.0) continue;       // Opposite direction: no match.
        d += (1.0 - align) * 0.25 * max_distance;
      }
      if (d < best) {
        best = d;
        best_idx = static_cast<int>(p);
      }
    }
    if (best_idx >= 0) {
      counts[spec.paths[static_cast<size_t>(best_idx)].label] += 1;
    }
  }
  return counts;
}

double PathBreakdownAccuracy(const std::map<std::string, int>& estimated,
                             const std::map<std::string, int>& ground_truth) {
  std::set<std::string> labels;
  for (const auto& [label, n] : estimated) labels.insert(label);
  for (const auto& [label, n] : ground_truth) labels.insert(label);
  if (labels.empty()) return 1.0;
  double sum = 0.0;
  int considered = 0;
  for (const std::string& label : labels) {
    const auto ei = estimated.find(label);
    const auto gi = ground_truth.find(label);
    const double est = ei != estimated.end() ? ei->second : 0;
    const double gt = gi != ground_truth.end() ? gi->second : 0;
    if (gt <= 0 && est <= 0) continue;  // Skip always-empty labels.
    if (gt <= 0) {
      sum += 0.0;
    } else {
      sum += std::clamp(1.0 - std::abs(est - gt) / gt, 0.0, 1.0);
    }
    ++considered;
  }
  return considered > 0 ? sum / considered : 1.0;
}

std::vector<int64_t> FindHardBrakingTracks(
    const std::vector<track::Track>& tracks, const sim::DatasetSpec& spec,
    double decel_mps2) {
  std::vector<int64_t> ids;
  const double fps = spec.fps;
  for (const track::Track& t : tracks) {
    if (!IsVehicle(t.cls) || t.detections.size() < 4) continue;
    // Speeds between consecutive detections (m/s) at their midpoint frames.
    std::vector<double> speeds;
    std::vector<double> mid_sec;
    for (size_t i = 1; i < t.detections.size(); ++i) {
      const track::Detection& a = t.detections[i - 1];
      const track::Detection& b = t.detections[i];
      const double dt = (b.frame - a.frame) / fps;
      if (dt <= 0) continue;
      speeds.push_back(a.box.Center().DistanceTo(b.box.Center()) / dt *
                       spec.meters_per_pixel);
      mid_sec.push_back((a.frame + b.frame) / 2.0 / fps);
    }
    if (speeds.size() < 3) continue;
    // 3-point moving average removes the apparent deceleration that
    // detector localization jitter induces at reduced sampling rates.
    std::vector<double> smooth(speeds.size());
    for (size_t i = 0; i < speeds.size(); ++i) {
      double sum = speeds[i];
      int n = 1;
      if (i > 0) {
        sum += speeds[i - 1];
        ++n;
      }
      if (i + 1 < speeds.size()) {
        sum += speeds[i + 1];
        ++n;
      }
      smooth[i] = sum / n;
    }
    bool braked = false;
    for (size_t i = 1; i < smooth.size() && !braked; ++i) {
      const double span = mid_sec[i] - mid_sec[i - 1];
      if (span <= 0) continue;
      if ((smooth[i - 1] - smooth[i]) / span >= decel_mps2) braked = true;
    }
    if (braked) ids.push_back(t.id);
  }
  return ids;
}

bool CountPredicate::Matches(const std::vector<geom::BBox>& boxes) const {
  return static_cast<int>(boxes.size()) >= n_;
}

bool RegionPredicate::Matches(const std::vector<geom::BBox>& boxes) const {
  int inside = 0;
  for (const geom::BBox& b : boxes) {
    if (region_.Contains(b.Center())) ++inside;
  }
  return inside >= n_;
}

bool HotSpotPredicate::Matches(const std::vector<geom::BBox>& boxes) const {
  // A cluster of >= n boxes within radius R: test circles centered at each
  // box center.
  if (static_cast<int>(boxes.size()) < n_) return false;
  for (const geom::BBox& center : boxes) {
    int nearby = 0;
    for (const geom::BBox& other : boxes) {
      if (center.Center().DistanceTo(other.Center()) <= radius_) ++nearby;
    }
    if (nearby >= n_) return true;
  }
  return false;
}

std::vector<geom::BBox> VehicleBoxesAt(const std::vector<track::Track>& tracks,
                                       int frame) {
  std::vector<geom::BBox> boxes;
  for (const track::Track& t : tracks) {
    if (!IsVehicle(t.cls) || t.empty()) continue;
    if (frame < t.StartFrame() || frame > t.EndFrame()) continue;
    boxes.push_back(t.InterpolatedBoxAt(frame));
  }
  return boxes;
}

std::vector<std::pair<int, int>> ExecuteLimitQueryMultiClip(
    const std::vector<std::vector<track::Track>>& tracks_per_clip,
    const FramePredicate& predicate, const std::vector<int>& clip_frames,
    int limit, int min_separation_frames) {
  OTIF_CHECK_EQ(tracks_per_clip.size(), clip_frames.size());
  struct Candidate {
    int clip;
    int frame;
    double score;
  };
  std::vector<Candidate> candidates;
  for (size_t c = 0; c < tracks_per_clip.size(); ++c) {
    const auto& tracks = tracks_per_clip[c];
    for (int f = 0; f < clip_frames[c]; ++f) {
      if (!predicate.Matches(VehicleBoxesAt(tracks, f))) continue;
      // Frames backed by long tracks are less likely spurious.
      double min_duration = 1e9;
      for (const track::Track& t : tracks) {
        if (t.empty() || f < t.StartFrame() || f > t.EndFrame()) continue;
        min_duration = std::min(min_duration,
                                static_cast<double>(t.DurationFrames()));
      }
      candidates.push_back(
          {static_cast<int>(c), f, min_duration >= 1e9 ? 0.0 : min_duration});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.clip != b.clip) return a.clip < b.clip;
              return a.frame < b.frame;
            });
  std::vector<std::pair<int, int>> chosen;
  for (const Candidate& c : candidates) {
    if (static_cast<int>(chosen.size()) >= limit) break;
    bool ok = true;
    for (const auto& [clip, frame] : chosen) {
      if (clip == c.clip && std::abs(frame - c.frame) < min_separation_frames) {
        ok = false;
        break;
      }
    }
    if (ok) chosen.push_back({c.clip, c.frame});
  }
  return chosen;
}

bool GroundTruthMatches(const sim::Clip& clip, int frame,
                        const FramePredicate& predicate) {
  std::vector<geom::BBox> boxes;
  for (const sim::VisibleObject& vis : clip.VisibleAt(frame)) {
    const sim::GtObject& obj = clip.objects()[static_cast<size_t>(vis.object_index)];
    if (!IsVehicle(obj.cls)) continue;
    boxes.push_back(obj.states[static_cast<size_t>(vis.state_index)].box);
  }
  return predicate.Matches(boxes);
}

double LimitQueryAccuracy(const std::vector<sim::Clip>& clips,
                          const std::vector<std::pair<int, int>>& frames,
                          const FramePredicate& predicate) {
  if (frames.empty()) return 1.0;
  int good = 0;
  for (const auto& [clip, frame] : frames) {
    if (GroundTruthMatches(clips[static_cast<size_t>(clip)], frame,
                           predicate)) {
      ++good;
    }
  }
  return static_cast<double>(good) / static_cast<double>(frames.size());
}

}  // namespace otif::query
