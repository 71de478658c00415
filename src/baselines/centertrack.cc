#include "baselines/centertrack.h"

#include "track/iou_tracker.h"
#include "util/strings.h"

namespace otif::baselines {

models::DetectorArch CenterTrack::Backbone() {
  models::DetectorArch arch;
  arch.name = "centertrack_dla34";
  arch.sec_per_pixel = 6.5e-8;  // Between YOLOv3 and Mask R-CNN.
  arch.sec_per_invocation = 1.2e-3;
  // MOT17-grade on pedestrians, but transferred without dataset-specific
  // hyperparameter tuning it misses more vehicles and hallucinates more
  // (paper Sec 4.1: "performs poorly on all datasets except Amsterdam...
  // may require extensive hyperparameter tuning").
  arch.size50_px = 8.5;
  arch.size_slope = 0.26;
  arch.max_recall = 0.9;
  arch.fp_per_mpx = 1.4;
  arch.loc_jitter = 0.05;
  return arch;
}

std::vector<MethodPoint> CenterTrack::Run(
    const std::vector<sim::Clip>& valid, const std::vector<sim::Clip>& test,
    const core::AccuracyFn& valid_accuracy,
    const core::AccuracyFn& test_accuracy) {
  (void)valid;
  (void)valid_accuracy;
  const models::CostConstants& costs = models::DefaultCostConstants();
  models::SimulatedDetector detector(Backbone());

  std::vector<MethodPoint> points;
  // CenterTrack's offset head is trained at native resolution; the naive
  // tuning of the paper only tolerates modest downscaling.
  for (double scale : {1.0, 0.85, 0.7}) {
    for (int gap : {1, 2, 4}) {
      models::SimClock clock;
      std::vector<std::vector<track::Track>> tracks_per_clip;
      for (const sim::Clip& clip : test) {
        const sim::DatasetSpec& spec = clip.spec();
        track::IouTracker::Options topts;
        topts.frame_w = spec.width;
        topts.frame_h = spec.height;
        // The offset head only regresses small inter-frame motion: tight
        // displacement gate.
        topts.max_center_shift_frac = 0.08;
        topts.max_misses = 1;
        track::IouTracker tracker(topts);

        clock.Charge(models::CostCategory::kDecode,
                     models::DecodeSeconds(spec.width, spec.height,
                                           clip.num_frames(), gap, scale));
        for (int f = 0; f < clip.num_frames(); f += gap) {
          clock.Charge(models::CostCategory::kDetect,
                       detector.FullFrameSeconds(clip, scale));
          track::FrameDetections dets = models::FilterByConfidence(
              detector.Detect(clip, f, scale), 0.4);
          clock.Charge(models::CostCategory::kTrack,
                       costs.sort_sec_per_detection * dets.size());
          tracker.ProcessFrame(f, dets);
        }
        tracks_per_clip.push_back(tracker.Finish(2));
      }
      MethodPoint p;
      p.label = StrFormat("centertrack(scale=%.2f gap=%d)", scale, gap);
      p.seconds = clock.TotalSeconds();
      p.reusable_seconds = p.seconds;
      p.accuracy = test_accuracy(tracks_per_clip);
      points.push_back(p);
    }
  }
  return points;
}

}  // namespace otif::baselines
