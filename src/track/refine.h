#ifndef OTIF_TRACK_REFINE_H_
#define OTIF_TRACK_REFINE_H_

#include <memory>
#include <vector>

#include "geom/geometry.h"
#include "geom/grid_index.h"
#include "track/types.h"

namespace otif::track {

/// Evenly spaced points each track path is resampled to before paths are
/// compared, in clustering and in refinement alike (paper: N = 20).
inline constexpr int kPathSamples = 20;

/// A cluster of training-set tracks sharing a similar path: the center path
/// (kPathSamples evenly spaced points) plus the member count (used as the
/// weight in refinement's weighted median).
struct TrackCluster {
  std::vector<geom::Point> center;
  int size = 0;
};

/// Options for DBSCAN over tracks (paper Sec 3.4 "Refinement").
struct DbscanOptions {
  /// Neighborhood radius under the resampled-polyline distance metric, in
  /// native pixels.
  double epsilon = 40.0;
};

/// Clusters tracks with DBSCAN using the paper's distance metric: mean
/// Euclidean distance between corresponding evenly spaced points. A track
/// with at least one neighbor is a core track. Noise tracks (no dense
/// neighborhood) become singleton clusters so rare paths are still
/// represented in the refinement index.
std::vector<TrackCluster> ClusterTracks(const std::vector<Track>& tracks,
                                        const DbscanOptions& options);

/// Refines track start/end points using the cluster index (paper Sec 3.4):
/// tracks captured at a reduced sampling rate begin/end offset from the
/// object's true entry/exit; the refiner extends each track to the
/// size-weighted median start/end of its k nearest cluster paths (paper:
/// k = 10).
class TrackRefiner {
 public:
  struct Options {
    /// Only clusters whose endpoints pass within this distance of the
    /// track's endpoints are considered by the index probe.
    double index_cell_px = 64.0;
    /// Tracks whose distance to every cluster exceeds this are left as-is.
    double max_cluster_distance = 160.0;
  };

  TrackRefiner(std::vector<TrackCluster> clusters, Options options);

  /// Returns the refined copy of `t`: a synthetic start detection is
  /// prepended and a synthetic end detection appended at the estimated true
  /// entry/exit positions (frame stamps extrapolated from track speed).
  Track Refine(const Track& t) const;

  /// Refines every track in place.
  std::vector<Track> RefineAll(const std::vector<Track>& tracks) const;

  size_t num_clusters() const { return clusters_.size(); }

 private:
  std::vector<TrackCluster> clusters_;
  Options options_;
  std::unique_ptr<geom::GridIndex> index_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_REFINE_H_
