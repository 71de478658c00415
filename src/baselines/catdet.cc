#include "baselines/catdet.h"

#include <algorithm>

#include "track/sort_tracker.h"
#include "util/strings.h"

namespace otif::baselines {

std::vector<MethodPoint> RunCaTDet(const std::vector<sim::Clip>& test,
                                   const core::AccuracyFn& test_accuracy) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const models::DetectorArch arch =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  models::SimulatedDetector detector(arch);

  std::vector<MethodPoint> points;
  for (int refresh : {1, 2, 4, 8, 16}) {
    models::SimClock clock;
    std::vector<std::vector<track::Track>> tracks_per_clip;
    for (const sim::Clip& clip : test) {
      const sim::DatasetSpec& spec = clip.spec();
      track::SortTracker tracker;
      // The cascade's proposal stage derives its windows from the last
      // frame's detections.
      track::FrameDetections last_dets;

      // CaTDet decodes every frame at native resolution.
      clock.Charge(models::CostCategory::kDecode,
                   models::DecodeSeconds(spec.width, spec.height,
                                         clip.num_frames(), 1, 1.0));
      for (int f = 0; f < clip.num_frames(); ++f) {
        track::FrameDetections dets;
        if (f % refresh == 0 || last_dets.empty()) {
          clock.Charge(models::CostCategory::kDetect,
                       detector.FullFrameSeconds(clip, 1.0));
          dets = models::FilterByConfidence(detector.Detect(clip, f, 1.0),
                                            0.4);
        } else {
          // Proposal windows: 2x-expanded boxes around the previous
          // frame's detections; the detector runs per window.
          std::vector<geom::BBox> windows;
          for (const track::Detection& d : last_dets) {
            const geom::BBox w(d.box.cx, d.box.cy, d.box.w * 2.5 + 16,
                               d.box.h * 2.5 + 16);
            windows.push_back(w);
            clock.Charge(models::CostCategory::kDetect,
                         models::DetectorWindowSeconds(arch, w.w, w.h));
          }
          dets = models::FilterByConfidence(
              models::FilterByWindows(detector.Detect(clip, f, 1.0), windows),
              0.4);
        }
        clock.Charge(models::CostCategory::kTrack,
                     costs.sort_sec_per_detection * dets.size());
        tracker.ProcessFrame(f, dets);
        last_dets = dets;
      }
      tracks_per_clip.push_back(tracker.Finish(2));
    }
    MethodPoint p;
    p.label = StrFormat("catdet(refresh=%d)", refresh);
    p.seconds = clock.TotalSeconds();
    p.reusable_seconds = p.seconds;
    p.accuracy = test_accuracy(tracks_per_clip);
    points.push_back(p);
  }
  return points;
}

}  // namespace otif::baselines
