#include "baselines/noscope.h"

#include <algorithm>

#include "sim/raster.h"
#include "track/iou_tracker.h"
#include "util/strings.h"

namespace otif::baselines {

std::vector<MethodPoint> NoScope::Run(
    const std::vector<sim::Clip>& valid, const std::vector<sim::Clip>& test,
    const core::AccuracyFn& valid_accuracy,
    const core::AccuracyFn& test_accuracy) {
  (void)valid;
  (void)valid_accuracy;
  const models::CostConstants& costs = models::DefaultCostConstants();
  const models::DetectorArch arch =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  models::SimulatedDetector detector(arch);

  // Per-frame max proxy scores, computed once and swept over thresholds.
  std::vector<std::vector<double>> frame_scores(test.size());
  for (size_t ci = 0; ci < test.size(); ++ci) {
    sim::Rasterizer raster(&test[ci]);
    frame_scores[ci].reserve(static_cast<size_t>(test[ci].num_frames()));
    for (int f = 0; f < test[ci].num_frames(); ++f) {
      const nn::Tensor scores = proxy_->Score(
          raster.Render(f, proxy_->resolution().raster_w(),
                        proxy_->resolution().raster_h()));
      double max_score = 0.0;
      for (int64_t i = 0; i < scores.size(); ++i) {
        max_score = std::max<double>(max_score, scores[i]);
      }
      frame_scores[ci].push_back(max_score);
    }
  }

  std::vector<MethodPoint> points;
  for (double skip_threshold : {0.0, 0.3, 0.5, 0.7, 0.9, 1.01}) {
    models::SimClock clock;
    std::vector<std::vector<track::Track>> tracks_per_clip;
    for (size_t ci = 0; ci < test.size(); ++ci) {
      const sim::Clip& clip = test[ci];
      const sim::DatasetSpec& spec = clip.spec();
      track::IouTracker::Options topts;
      topts.frame_w = spec.width;
      topts.frame_h = spec.height;
      topts.max_misses = 2;
      track::IouTracker tracker(topts);

      // NoScope decodes every frame at native resolution.
      clock.Charge(models::CostCategory::kDecode,
                   models::DecodeSeconds(spec.width, spec.height,
                                         clip.num_frames(), 1, 1.0));
      for (int f = 0; f < clip.num_frames(); ++f) {
        double frame_score = 1.0;
        if (skip_threshold > 0.0) {
          frame_score = frame_scores[ci][static_cast<size_t>(f)];
          clock.Charge(models::CostCategory::kProxy,
                       costs.proxy_sec_per_frame +
                           costs.proxy_sec_per_pixel *
                               proxy_->resolution().world_pixels());
        }
        track::FrameDetections dets;
        if (frame_score >= skip_threshold) {
          clock.Charge(models::CostCategory::kDetect,
                       detector.FullFrameSeconds(clip, 1.0));
          dets = models::FilterByConfidence(detector.Detect(clip, f, 1.0),
                                            0.4);
        }
        clock.Charge(models::CostCategory::kTrack,
                     costs.sort_sec_per_detection * dets.size());
        tracker.ProcessFrame(f, dets);
      }
      tracks_per_clip.push_back(tracker.Finish(2));
    }
    MethodPoint p;
    p.label = StrFormat("noscope(skip<%.2f)", skip_threshold);
    p.seconds = clock.TotalSeconds();
    p.reusable_seconds = p.seconds;
    p.accuracy = test_accuracy(tracks_per_clip);
    points.push_back(p);
  }
  return points;
}

}  // namespace otif::baselines
