#ifndef OTIF_MODELS_DETECTOR_H_
#define OTIF_MODELS_DETECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geom/geometry.h"
#include "models/cost_model.h"
#include "sim/world.h"
#include "track/types.h"

namespace otif::models {

/// Behavioral profile of an object detection architecture. The accuracy
/// model reproduces the detector's speed-accuracy response to input
/// resolution: miss probability grows as apparent object size (in detector
/// input pixels) shrinks, plus occlusion penalties, localization jitter, and
/// false positives. Throughput is calibrated so that the `yolov3` profile
/// matches the paper's anchor (100 fps at 960x540 on a V100).
struct DetectorArch {
  std::string name;
  /// GPU inference time per input pixel, seconds.
  double sec_per_pixel = 1.93e-8;
  /// Per-invocation overhead (kernel launch / batching residue), seconds.
  double sec_per_invocation = 5.0e-4;
  /// Apparent object size (sqrt of box area in detector-input pixels) at
  /// which detection probability reaches half of max_recall.
  double size50_px = 9.0;
  /// Slope of the logistic detection curve (relative to size50_px).
  double size_slope = 0.28;
  /// Detection probability ceiling for large, unoccluded objects.
  double max_recall = 0.97;
  /// Expected false positives per megapixel of detector input per frame.
  double fp_per_mpx = 0.8;
  /// Center/size jitter as a fraction of object size (at scale 1; grows as
  /// 1/scale for downsampled inputs).
  double loc_jitter = 0.045;
};

/// The architecture set A = {YOLOv3, Mask R-CNN} used in the paper.
std::vector<DetectorArch> StandardDetectorArchs();

/// Returns the architecture with the given name (CHECK-fails if absent).
const DetectorArch& ArchByName(const std::vector<DetectorArch>& archs,
                               const std::string& name);

/// Simulated detector execution time on a (w x h)-pixel input window.
double DetectorWindowSeconds(const DetectorArch& arch, double width,
                             double height);

/// Behavioral object detector. Given ground truth, emits the detections the
/// real architecture would plausibly produce at a given input scale.
/// Deterministic in (clip seed, frame, arch, scale bucket): repeated calls
/// return identical results, which makes tuner evaluations cacheable.
class SimulatedDetector {
 public:
  explicit SimulatedDetector(DetectorArch arch);

  const DetectorArch& arch() const { return arch_; }

  /// Full-frame detections at input scale in (0, 1]: the frame is
  /// virtually resized to (scale*W, scale*H) before inference. Output boxes
  /// are in native coordinates. Includes false positives; detections carry
  /// confidences for downstream thresholding. Class labels are noisy for
  /// small objects.
  track::FrameDetections Detect(const sim::Clip& clip, int frame,
                                double scale) const;

  /// Batched Detect: full-frame detections for every frame index in
  /// `frames` at the same scale, in order. Element i is bit-identical to
  /// Detect(clip, frames[i], scale); the per-invocation seed work
  /// (arch-name hashing, scale bucketing) is hoisted out of the per-frame
  /// loop, which is what makes aggregating a clip batch into one call pay.
  std::vector<track::FrameDetections> DetectBatch(
      const sim::Clip& clip, const std::vector<int>& frames,
      double scale) const;

  /// Simulated seconds to run this detector on the full frame at `scale`.
  double FullFrameSeconds(const sim::Clip& clip, double scale) const;

 private:
  /// Shared emission path: detections for `frame` from a fully mixed seed.
  track::FrameDetections DetectSeeded(const sim::Clip& clip, int frame,
                                      double scale, uint64_t seed) const;

  DetectorArch arch_;
};

/// Keeps detections whose box center lies inside at least one window
/// (native-coordinate rectangles). Models windowed detector execution: the
/// detection set is the full-frame set restricted to covered regions.
track::FrameDetections FilterByWindows(
    const track::FrameDetections& detections,
    const std::vector<geom::BBox>& windows);

/// Keeps detections with confidence >= threshold.
track::FrameDetections FilterByConfidence(
    const track::FrameDetections& detections, double threshold);

}  // namespace otif::models

#endif  // OTIF_MODELS_DETECTOR_H_
