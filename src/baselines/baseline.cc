#include "baselines/baseline.h"

namespace otif::baselines {

const MethodPoint* FastestWithinTolerance(
    const std::vector<MethodPoint>& points, double best_accuracy,
    double tolerance) {
  const MethodPoint* fastest = nullptr;
  for (const MethodPoint& p : points) {
    if (p.accuracy + tolerance < best_accuracy) continue;
    if (fastest == nullptr || p.seconds < fastest->seconds) fastest = &p;
  }
  if (fastest == nullptr) {
    // No point reaches the tolerance band: report the most accurate point
    // (the method simply cannot match the best accuracy).
    for (const MethodPoint& p : points) {
      if (fastest == nullptr || p.accuracy > fastest->accuracy ||
          (p.accuracy == fastest->accuracy && p.seconds < fastest->seconds)) {
        fastest = &p;
      }
    }
  }
  return fastest;
}

std::vector<track::Track> DetectAndTrack(
    const sim::Clip& clip, const models::SimulatedDetector& detector, int gap,
    double scale, track::IouTracker::Options tracker_options,
    models::SimClock* clock) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const sim::DatasetSpec& spec = clip.spec();
  tracker_options.frame_w = spec.width;
  tracker_options.frame_h = spec.height;
  track::IouTracker tracker(tracker_options);

  // Decode cost at the detector resolution (same model as the pipeline).
  clock->Charge(models::CostCategory::kDecode,
                models::DecodeSeconds(spec.width, spec.height,
                                      clip.num_frames(), gap, scale));
  for (int f = 0; f < clip.num_frames(); f += gap) {
    clock->Charge(models::CostCategory::kDetect,
                  detector.FullFrameSeconds(clip, scale));
    track::FrameDetections dets =
        models::FilterByConfidence(detector.Detect(clip, f, scale), 0.4);
    clock->Charge(models::CostCategory::kTrack,
                  costs.sort_sec_per_detection * dets.size());
    tracker.ProcessFrame(f, dets);
  }
  return tracker.Finish(2);
}

}  // namespace otif::baselines
