#include "models/detector.h"

#include <algorithm>
#include <cmath>

#include "nn/layers.h"
#include "util/logging.h"
#include "util/rng.h"

namespace otif::models {
namespace {

// Scale is bucketed so that numerically close scales share the same random
// stream (stable, cacheable detections across tuner evaluations).
int ScaleBucket(double scale) {
  return static_cast<int>(std::lround(scale * 100.0));
}

// Frame-independent part of DetectSeed; XOR with FrameSeedTerm(frame) to get
// the full per-frame seed. Split out so batched calls hash the arch name and
// bucket the scale once per invocation instead of once per frame.
uint64_t DetectSeedBase(const sim::Clip& clip, const DetectorArch& arch,
                        double scale) {
  uint64_t h = clip.clip_seed() * 0x9e3779b97f4a7c15ULL;
  h ^= std::hash<std::string>{}(arch.name) * 0x94d049bb133111ebULL;
  h ^= static_cast<uint64_t>(ScaleBucket(scale) + 7) * 0xd6e8feb86659fd93ULL;
  return h;
}

uint64_t FrameSeedTerm(int frame) {
  return static_cast<uint64_t>(frame + 1) * 0xbf58476d1ce4e5b9ULL;
}

uint64_t DetectSeed(const sim::Clip& clip, int frame,
                    const DetectorArch& arch, double scale) {
  return DetectSeedBase(clip, arch, scale) ^ FrameSeedTerm(frame);
}

// Fraction of `box` covered by `other` (0..1).
double CoveredFraction(const geom::BBox& box, const geom::BBox& other) {
  const double area = box.Area();
  if (area <= 0) return 0.0;
  return box.IntersectionArea(other) / area;
}

track::ObjectClass NoisyClass(track::ObjectClass true_cls, double apparent,
                              Rng* rng) {
  // Class confusion for small objects: cars/trucks are visually similar.
  const double confuse_prob =
      std::clamp(0.25 - apparent / 120.0, 0.0, 0.25);
  if (!rng->Bernoulli(confuse_prob)) return true_cls;
  switch (true_cls) {
    case track::ObjectClass::kCar:
      return track::ObjectClass::kTruck;
    case track::ObjectClass::kTruck:
      return track::ObjectClass::kCar;
    case track::ObjectClass::kBus:
      return track::ObjectClass::kTruck;
    case track::ObjectClass::kPedestrian:
      return track::ObjectClass::kPedestrian;
  }
  return true_cls;
}

}  // namespace

std::vector<DetectorArch> StandardDetectorArchs() {
  DetectorArch yolo;
  yolo.name = "yolov3";
  // 100 fps at 960x540 = 10 ms / 518400 px = 19.3 ns per pixel (paper Sec 1).
  yolo.sec_per_pixel = 1.93e-8;
  yolo.sec_per_invocation = 5.0e-4;
  yolo.size50_px = 9.0;
  yolo.size_slope = 0.28;
  yolo.max_recall = 0.97;
  yolo.fp_per_mpx = 0.8;
  yolo.loc_jitter = 0.045;

  DetectorArch mask_rcnn;
  mask_rcnn.name = "mask_rcnn";
  // Roughly 5x slower than YOLOv3, better on small objects, fewer FPs.
  mask_rcnn.sec_per_pixel = 9.6e-8;
  mask_rcnn.sec_per_invocation = 2.0e-3;
  mask_rcnn.size50_px = 6.0;
  mask_rcnn.size_slope = 0.24;
  mask_rcnn.max_recall = 0.985;
  mask_rcnn.fp_per_mpx = 0.45;
  mask_rcnn.loc_jitter = 0.03;
  return {yolo, mask_rcnn};
}

const DetectorArch& ArchByName(const std::vector<DetectorArch>& archs,
                               const std::string& name) {
  for (const DetectorArch& a : archs) {
    if (a.name == name) return a;
  }
  OTIF_CHECK(false) << "unknown detector architecture: " << name;
  return archs.front();
}

double DetectorWindowSeconds(const DetectorArch& arch, double width,
                             double height) {
  return arch.sec_per_invocation + arch.sec_per_pixel * width * height;
}

SimulatedDetector::SimulatedDetector(DetectorArch arch)
    : arch_(std::move(arch)) {}

double SimulatedDetector::FullFrameSeconds(const sim::Clip& clip,
                                           double scale) const {
  return DetectorWindowSeconds(arch_, clip.spec().width * scale,
                               clip.spec().height * scale);
}

track::FrameDetections SimulatedDetector::Detect(const sim::Clip& clip,
                                                 int frame,
                                                 double scale) const {
  OTIF_CHECK_GT(scale, 0.0);
  OTIF_CHECK_LE(scale, 1.0);
  return DetectSeeded(clip, frame, scale, DetectSeed(clip, frame, arch_, scale));
}

std::vector<track::FrameDetections> SimulatedDetector::DetectBatch(
    const sim::Clip& clip, const std::vector<int>& frames,
    double scale) const {
  OTIF_CHECK_GT(scale, 0.0);
  OTIF_CHECK_LE(scale, 1.0);
  const uint64_t base = DetectSeedBase(clip, arch_, scale);
  std::vector<track::FrameDetections> out;
  out.reserve(frames.size());
  for (int frame : frames) {
    out.push_back(DetectSeeded(clip, frame, scale, base ^ FrameSeedTerm(frame)));
  }
  return out;
}

track::FrameDetections SimulatedDetector::DetectSeeded(const sim::Clip& clip,
                                                       int frame, double scale,
                                                       uint64_t seed) const {
  Rng rng(seed);
  track::FrameDetections out;

  const auto& visible = clip.VisibleAt(frame);
  const auto& objects = clip.objects();

  for (const sim::VisibleObject& vis : visible) {
    const sim::GtObject& obj = objects[static_cast<size_t>(vis.object_index)];
    const sim::ObjectFrameState& st =
        obj.states[static_cast<size_t>(vis.state_index)];
    // Apparent size in detector-input pixels.
    const double apparent = std::sqrt(st.box.w * st.box.h) * scale;
    double p = arch_.max_recall *
               nn::StableSigmoid(static_cast<float>(
                   (apparent - arch_.size50_px) /
                   (arch_.size_slope * arch_.size50_px)));
    // Occlusion penalty: fraction covered by any larger object.
    double occluded = 0.0;
    for (const sim::VisibleObject& other_vis : visible) {
      if (other_vis.object_index == vis.object_index) continue;
      const sim::GtObject& other =
          objects[static_cast<size_t>(other_vis.object_index)];
      const sim::ObjectFrameState& other_st =
          other.states[static_cast<size_t>(other_vis.state_index)];
      if (other_st.box.Area() <= st.box.Area()) continue;
      occluded = std::max(occluded, CoveredFraction(st.box, other_st.box));
    }
    p *= (1.0 - 0.75 * occluded);
    // Boundary penalty: partially out-of-frame objects are harder.
    const geom::BBox clipped =
        st.box.ClippedTo(clip.spec().width, clip.spec().height);
    const double inside = clipped.Area() / std::max(1.0, st.box.Area());
    p *= std::clamp(inside * 1.25, 0.0, 1.0);

    if (!rng.Bernoulli(p)) continue;

    // Localization jitter grows as the input is downsampled.
    const double jitter = arch_.loc_jitter / std::sqrt(scale);
    track::Detection d;
    d.frame = frame;
    d.box = geom::BBox(
        st.box.cx + rng.Gaussian(0.0, jitter * st.box.w),
        st.box.cy + rng.Gaussian(0.0, jitter * st.box.h),
        std::max(2.0, st.box.w * (1.0 + rng.Gaussian(0.0, jitter))),
        std::max(2.0, st.box.h * (1.0 + rng.Gaussian(0.0, jitter))));
    d.cls = NoisyClass(obj.cls, apparent, &rng);
    // Confidence correlates with apparent size and detection difficulty.
    const double conf_mean =
        0.55 + 0.45 * nn::StableSigmoid(static_cast<float>(
                          (apparent - arch_.size50_px) / arch_.size50_px));
    d.confidence = std::clamp(rng.Gaussian(conf_mean, 0.1), 0.05, 1.0);
    d.gt_id = obj.id;
    out.push_back(d);
  }

  // False positives: Poisson over the detector-input area, low confidence.
  const double input_mpx =
      clip.spec().width * scale * clip.spec().height * scale / 1e6;
  const double fp_mean = arch_.fp_per_mpx * input_mpx;
  int n_fp = 0;
  {
    // Knuth Poisson sampling (fp_mean is small).
    double l = std::exp(-fp_mean), prod = rng.NextDouble();
    while (prod > l) {
      ++n_fp;
      prod *= rng.NextDouble();
    }
  }
  for (int i = 0; i < n_fp; ++i) {
    track::Detection d;
    d.frame = frame;
    const double w = std::exp(rng.Gaussian(std::log(30.0), 0.4));
    d.box = geom::BBox(rng.Uniform(0, clip.spec().width),
                       rng.Uniform(0, clip.spec().height), w, w * 0.7);
    d.cls = track::ObjectClass::kCar;
    d.confidence = std::clamp(rng.Gaussian(0.35, 0.12), 0.05, 0.8);
    d.gt_id = -1;
    out.push_back(d);
  }
  return out;
}

track::FrameDetections FilterByWindows(
    const track::FrameDetections& detections,
    const std::vector<geom::BBox>& windows) {
  track::FrameDetections out;
  for (const track::Detection& d : detections) {
    for (const geom::BBox& w : windows) {
      if (w.Contains(d.box.Center())) {
        out.push_back(d);
        break;
      }
    }
  }
  return out;
}

track::FrameDetections FilterByConfidence(
    const track::FrameDetections& detections, double threshold) {
  track::FrameDetections out;
  for (const track::Detection& d : detections) {
    if (d.confidence >= threshold) out.push_back(d);
  }
  return out;
}

}  // namespace otif::models
