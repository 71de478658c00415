#ifndef OTIF_SIM_DATASET_H_
#define OTIF_SIM_DATASET_H_

#include <string>
#include <vector>

#include "geom/geometry.h"
#include "track/types.h"

namespace otif::sim {

/// Weighted object-class mix for a spawn path.
struct ClassWeight {
  track::ObjectClass cls = track::ObjectClass::kCar;
  double weight = 1.0;
};

/// One spawn path: objects appear at the first waypoint and follow the
/// polyline at (noisy) constant speed until the last waypoint. Waypoints are
/// native frame coordinates; perspective is expressed both through the path
/// geometry and through the size/speed scale interpolated along the path.
struct SpawnPath {
  /// Human-readable path type, e.g. "north->south". Path breakdown queries
  /// (Sec 4.1) count tracks per label.
  std::string label;
  std::vector<geom::Point> waypoints;
  /// Poisson arrival rate (objects per second of video).
  double rate_hz = 0.1;
  /// Speed distribution along the path, native pixels per second.
  double speed_mean_px = 60.0;
  double speed_std_px = 10.0;
  /// Base bounding-box width in native pixels; height = width * aspect.
  double size_mean_px = 40.0;
  double size_std_px = 6.0;
  double aspect = 0.6;
  /// Apparent size/speed multiplier at the start and end of the path
  /// (perspective: objects near the horizon are smaller and slower).
  double scale_at_start = 1.0;
  double scale_at_end = 1.0;
  /// Traffic-signal gating: arrivals only occur during the first
  /// `green_fraction` of each `cycle_sec` cycle (offset by `phase_sec`).
  /// cycle_sec == 0 disables gating.
  double cycle_sec = 0.0;
  double green_fraction = 1.0;
  double phase_sec = 0.0;
  /// Object class mix; defaults to all cars.
  std::vector<ClassWeight> class_mix = {{track::ObjectClass::kCar, 1.0}};
};

/// The seven evaluation datasets (paper Sec 4) plus a small synthetic
/// default used in examples and tests.
enum class DatasetId {
  kCaldot1 = 0,
  kCaldot2,
  kTokyo,
  kUav,
  kWarsaw,
  kAmsterdam,
  kJackson,
  kSynthetic,
};

/// All seven paper datasets, in Table 2 order.
std::vector<DatasetId> AllPaperDatasets();

/// Full specification of a synthetic video dataset.
struct DatasetSpec {
  std::string name;
  /// Native resolution (720x480 for Caldot*, 1280x720 otherwise, per paper).
  int width = 1280;
  int height = 720;
  /// Native framerate (5 fps UAV ... 30 fps Amsterdam/Jackson).
  int fps = 10;
  /// Physical scale used by speed/acceleration queries (hard braking).
  double meters_per_pixel = 0.05;
  /// Moving camera (UAV): the viewport drifts as a bounded random walk.
  bool moving_camera = false;
  double camera_drift_px_per_sec = 0.0;
  double camera_drift_max_px = 0.0;
  /// Probability that a spawned object performs one hard-braking episode.
  double brake_prob = 0.03;
  /// Braking deceleration range, m/s^2.
  double brake_decel_min = 5.0;
  double brake_decel_max = 9.0;
  /// Background texture amplitude for the rasterizer (0 = flat).
  double background_complexity = 0.5;
  /// Base seed; clip k of split s derives its own stream from this.
  uint64_t seed = 1;
  std::vector<SpawnPath> paths;
};

/// Builds the preset specification for a dataset. Scene statistics follow
/// the paper's descriptions: Caldot1/2 are highway cameras (sparse, small
/// objects), Tokyo and Warsaw are busy junctions (objects in every frame),
/// UAV is a moving aerial camera, Amsterdam is a riverside plaza with many
/// empty-of-car frames, Jackson is a town junction.
DatasetSpec MakeDataset(DatasetId id);

}  // namespace otif::sim

#endif  // OTIF_SIM_DATASET_H_
