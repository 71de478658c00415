#ifndef OTIF_SIM_WORLD_H_
#define OTIF_SIM_WORLD_H_

#include <cstdint>
#include <vector>

#include "geom/geometry.h"
#include "sim/dataset.h"
#include "track/types.h"

namespace otif::sim {

/// Per-frame state of a ground-truth object while visible.
struct ObjectFrameState {
  int frame = 0;
  /// Box in camera/frame coordinates (after camera motion for UAV).
  geom::BBox box;
  /// Instantaneous speed in native pixels per second (apparent).
  double speed_px_per_sec = 0.0;
};

/// One simulated object with its full per-frame trajectory.
struct GtObject {
  int64_t id = -1;
  track::ObjectClass cls = track::ObjectClass::kCar;
  /// Index into DatasetSpec::paths.
  int path_index = -1;
  /// Frame-contiguous states while the object is visible in the clip.
  std::vector<ObjectFrameState> states;
  /// True when the object experienced a hard-braking episode in this clip.
  bool braked = false;
};

/// Reference to a visible object in one frame.
struct VisibleObject {
  /// Index into Clip::objects.
  int object_index = 0;
  /// Index into GtObject::states.
  int state_index = 0;
};

/// Ground truth for one simulated clip: all objects plus a per-frame
/// visibility index. This is the "oracle" against which accuracy is
/// evaluated and from which the behavioral detector derives detections.
class Clip {
 public:
  Clip(DatasetSpec spec, uint64_t clip_seed, int num_frames,
       std::vector<GtObject> objects,
       std::vector<geom::Point> camera_offsets);

  const DatasetSpec& spec() const { return spec_; }
  uint64_t clip_seed() const { return clip_seed_; }
  int num_frames() const { return num_frames_; }
  int fps() const { return spec_.fps; }
  double duration_sec() const {
    return static_cast<double>(num_frames_) / spec_.fps;
  }
  const std::vector<GtObject>& objects() const { return objects_; }

  /// Camera offset at a frame (zero for fixed cameras).
  const geom::Point& CameraOffset(int frame) const;

  /// Objects visible in the given frame.
  const std::vector<VisibleObject>& VisibleAt(int frame) const;

  /// Ground-truth boxes visible in a frame, as Detections with gt_id set.
  track::FrameDetections GroundTruthDetections(int frame) const;

 private:
  DatasetSpec spec_;
  uint64_t clip_seed_ = 0;
  int num_frames_;
  std::vector<GtObject> objects_;
  std::vector<geom::Point> camera_offsets_;
  std::vector<std::vector<VisibleObject>> frame_index_;
};

/// Simulates one clip of `duration_frames` frames. `clip_seed` selects the
/// clip (combine the dataset seed, split id, and clip index); identical
/// arguments produce identical clips. The simulation warms up before frame 0
/// so that objects are already mid-path when the clip begins.
Clip SimulateClip(const DatasetSpec& spec, uint64_t clip_seed,
                  int duration_frames);

/// Derives the seed for clip `clip_index` of split `split` ("train"=0,
/// "valid"=1, "test"=2) of a dataset.
uint64_t ClipSeed(const DatasetSpec& spec, int split, int clip_index);

}  // namespace otif::sim

#endif  // OTIF_SIM_WORLD_H_
