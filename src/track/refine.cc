#include "track/refine.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"

namespace otif::track {
namespace {

/// Minimum neighbors (incl. self) for a core track in DBSCAN.
constexpr int kMinPoints = 2;
/// Nearest cluster paths a refinement consults (paper: k = 10).
constexpr size_t kNearestClusters = 10;

static_assert(kPathSamples >= 2, "a resampled path needs both endpoints");

std::vector<geom::Point> CenterOfMembers(
    const std::vector<const std::vector<geom::Point>*>& members) {
  std::vector<geom::Point> center(static_cast<size_t>(kPathSamples));
  for (const auto* path : members) {
    for (int i = 0; i < kPathSamples; ++i) {
      center[static_cast<size_t>(i)].x += (*path)[static_cast<size_t>(i)].x;
      center[static_cast<size_t>(i)].y += (*path)[static_cast<size_t>(i)].y;
    }
  }
  const double inv = 1.0 / static_cast<double>(members.size());
  for (geom::Point& p : center) {
    p.x *= inv;
    p.y *= inv;
  }
  return center;
}

double ResampledDistance(const std::vector<geom::Point>& a,
                         const std::vector<geom::Point>& b) {
  OTIF_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i].DistanceTo(b[i]);
  return sum / static_cast<double>(a.size());
}

}  // namespace

std::vector<TrackCluster> ClusterTracks(const std::vector<Track>& tracks,
                                        const DbscanOptions& options) {
  const size_t n = tracks.size();
  std::vector<std::vector<geom::Point>> resampled;
  resampled.reserve(n);
  for (const Track& t : tracks) {
    OTIF_CHECK(!t.empty());
    resampled.push_back(
        geom::ResamplePolyline(t.CenterPolyline(), kPathSamples));
  }

  // Pairwise neighbor lists under the resampled distance.
  std::vector<std::vector<int>> neighbors(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (ResampledDistance(resampled[i], resampled[j]) <= options.epsilon) {
        neighbors[i].push_back(static_cast<int>(j));
        neighbors[j].push_back(static_cast<int>(i));
      }
    }
  }

  // DBSCAN: expand clusters from core points (>= min_points incl. self).
  constexpr int kUnvisited = -2, kNoise = -1;
  std::vector<int> label(n, kUnvisited);
  int next_cluster = 0;
  for (size_t i = 0; i < n; ++i) {
    if (label[i] != kUnvisited) continue;
    if (static_cast<int>(neighbors[i].size()) + 1 < kMinPoints) {
      label[i] = kNoise;
      continue;
    }
    const int cluster = next_cluster++;
    label[i] = cluster;
    std::vector<int> frontier = neighbors[i];
    while (!frontier.empty()) {
      const int j = frontier.back();
      frontier.pop_back();
      if (label[static_cast<size_t>(j)] == kNoise) {
        label[static_cast<size_t>(j)] = cluster;  // Border point.
      }
      if (label[static_cast<size_t>(j)] != kUnvisited) continue;
      label[static_cast<size_t>(j)] = cluster;
      if (static_cast<int>(neighbors[static_cast<size_t>(j)].size()) + 1 >=
          kMinPoints) {
        for (int k : neighbors[static_cast<size_t>(j)]) {
          if (label[static_cast<size_t>(k)] == kUnvisited ||
              label[static_cast<size_t>(k)] == kNoise) {
            frontier.push_back(k);
          }
        }
      }
    }
  }

  // Build cluster centers; noise tracks become singleton clusters so rare
  // paths still participate in refinement.
  std::vector<TrackCluster> clusters;
  std::vector<std::vector<const std::vector<geom::Point>*>> members(
      static_cast<size_t>(next_cluster));
  for (size_t i = 0; i < n; ++i) {
    if (label[i] >= 0) {
      members[static_cast<size_t>(label[i])].push_back(&resampled[i]);
    }
  }
  for (const auto& m : members) {
    if (m.empty()) continue;
    TrackCluster c;
    c.center = CenterOfMembers(m);
    c.size = static_cast<int>(m.size());
    clusters.push_back(std::move(c));
  }
  for (size_t i = 0; i < n; ++i) {
    if (label[i] == kNoise) {
      TrackCluster c;
      c.center = resampled[i];
      c.size = 1;
      clusters.push_back(std::move(c));
    }
  }
  return clusters;
}

TrackRefiner::TrackRefiner(std::vector<TrackCluster> clusters, Options options)
    : clusters_(std::move(clusters)), options_(options) {
  index_ = std::make_unique<geom::GridIndex>(options_.index_cell_px);
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    // Index only path endpoints: the query probes with the track's first
    // and last detections (paper: "identify several cluster centers that
    // pass close to d_1 and d_n").
    if (clusters_[ci].center.empty()) continue;
    index_->Insert(clusters_[ci].center.front(), static_cast<int64_t>(ci));
    index_->Insert(clusters_[ci].center.back(), static_cast<int64_t>(ci));
  }
}

Track TrackRefiner::Refine(const Track& t) const {
  if (t.detections.size() < 2 || clusters_.empty()) return t;
  const std::vector<geom::Point> path =
      geom::ResamplePolyline(t.CenterPolyline(), kPathSamples);

  // Candidate clusters: those passing near either endpoint.
  std::vector<int64_t> candidates =
      index_->QueryNearest(path.front(), kNearestClusters * 2);
  const std::vector<int64_t> more =
      index_->QueryNearest(path.back(), kNearestClusters * 2);
  candidates.insert(candidates.end(), more.begin(), more.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.empty()) return t;

  // Rank candidates by full path distance; keep the k closest.
  std::vector<std::pair<double, int64_t>> ranked;
  for (int64_t ci : candidates) {
    const double d =
        ResampledDistance(path, clusters_[static_cast<size_t>(ci)].center);
    if (d <= options_.max_cluster_distance) ranked.emplace_back(d, ci);
  }
  if (ranked.empty()) return t;
  std::sort(ranked.begin(), ranked.end());
  if (ranked.size() > kNearestClusters) ranked.resize(kNearestClusters);
  // Keep only clusters competitive with the best match: a junction's other
  // roads also pass "nearby" in absolute terms but are far relative to the
  // true path, and blending them corrupts the endpoint medians.
  const double cutoff =
      std::max(ranked.front().first * 2.0, ranked.front().first + 8.0);
  while (ranked.size() > 1 && ranked.back().first > cutoff) {
    ranked.pop_back();
  }

  // Weighted median of cluster start/end coordinates, weight = cluster size.
  std::vector<double> sx, sy, ex, ey, w;
  for (const auto& [dist, ci] : ranked) {
    const TrackCluster& c = clusters_[static_cast<size_t>(ci)];
    sx.push_back(c.center.front().x);
    sy.push_back(c.center.front().y);
    ex.push_back(c.center.back().x);
    ey.push_back(c.center.back().y);
    w.push_back(static_cast<double>(c.size));
  }
  geom::Point start(WeightedMedian(sx, w), WeightedMedian(sy, w));
  geom::Point end(WeightedMedian(ex, w), WeightedMedian(ey, w));

  // Cluster centers are undirected in index probing; orient (start, end) to
  // the track's direction of travel.
  const geom::Point track_start = t.detections.front().box.Center();
  const geom::Point track_end = t.detections.back().box.Center();
  if (start.DistanceTo(track_start) + end.DistanceTo(track_end) >
      start.DistanceTo(track_end) + end.DistanceTo(track_start)) {
    std::swap(start, end);
  }

  Track refined = t;
  const double speed = std::max(0.5, t.MeanSpeedPxPerFrame());
  // Direction of travel, for rejecting extensions that run backwards.
  const geom::Point travel = track_end - track_start;

  // Prepend the estimated entry point (frame extrapolated by travel time).
  {
    const double dist = start.DistanceTo(track_start);
    const geom::Point ext = track_start - start;  // Entry -> first seen.
    if (dist > 1.0 && ext.Dot(travel) >= 0.0) {
      Detection d = t.detections.front();
      const int dt = std::max(1, static_cast<int>(std::lround(dist / speed)));
      d.frame = t.detections.front().frame - dt;
      d.box.cx = start.x;
      d.box.cy = start.y;
      d.confidence = 0.5;  // Synthetic.
      refined.detections.insert(refined.detections.begin(), d);
    }
  }
  // Append the estimated exit point.
  {
    const double dist = end.DistanceTo(track_end);
    const geom::Point ext = end - track_end;  // Last seen -> exit.
    if (dist > 1.0 && ext.Dot(travel) >= 0.0) {
      Detection d = t.detections.back();
      const int dt = std::max(1, static_cast<int>(std::lround(dist / speed)));
      d.frame = t.detections.back().frame + dt;
      d.box.cx = end.x;
      d.box.cy = end.y;
      d.confidence = 0.5;
      refined.detections.push_back(d);
    }
  }
  return refined;
}

std::vector<Track> TrackRefiner::RefineAll(
    const std::vector<Track>& tracks) const {
  std::vector<Track> out;
  out.reserve(tracks.size());
  for (const Track& t : tracks) out.push_back(Refine(t));
  return out;
}

}  // namespace otif::track
