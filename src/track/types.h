#ifndef OTIF_TRACK_TYPES_H_
#define OTIF_TRACK_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace otif::track {

/// Object categories in the synthetic world. Queries in the evaluation focus
/// on cars, matching the paper (Sec 4, "Datasets").
enum class ObjectClass : uint8_t {
  kCar = 0,
  kBus = 1,
  kTruck = 2,
  kPedestrian = 3,
};

/// A single object detection d = (t, x, y, w, h) plus class and confidence
/// (paper Sec 3, Table 1). Coordinates are native-resolution frame pixels.
struct Detection {
  /// Frame index within the clip.
  int frame = 0;
  /// Bounding box in native frame coordinates.
  geom::BBox box;
  ObjectClass cls = ObjectClass::kCar;
  /// Detector confidence in [0, 1]; 1 for ground truth.
  double confidence = 1.0;
  /// Ground-truth object id this detection came from; -1 for false
  /// positives or when provenance is unknown. Used only for evaluation,
  /// never by the pipeline itself.
  int64_t gt_id = -1;
};

/// An object track s_i = (C_k, <d_1, ..., d_m>): a unique object represented
/// as a time-ordered sequence of detections (paper Sec 3).
struct Track {
  int64_t id = -1;
  ObjectClass cls = ObjectClass::kCar;
  std::vector<Detection> detections;

  bool empty() const { return detections.empty(); }
  int StartFrame() const;
  int EndFrame() const;
  /// Number of frames between first and last detection, inclusive.
  int DurationFrames() const;

  /// Center points of the detections in order (the track's path).
  std::vector<geom::Point> CenterPolyline() const;

  /// Linearly interpolated box at `frame`; clamps outside the track's span.
  geom::BBox InterpolatedBoxAt(int frame) const;

  /// Average speed (pixels/frame) between consecutive detections over the
  /// whole track; 0 for tracks with fewer than two detections.
  double MeanSpeedPxPerFrame() const;
};

/// Detections of several objects in one frame.
using FrameDetections = std::vector<Detection>;

}  // namespace otif::track

#endif  // OTIF_TRACK_TYPES_H_
