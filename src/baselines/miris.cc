#include "baselines/miris.h"

#include <algorithm>

#include "baselines/chameleon.h"
#include "track/iou_tracker.h"
#include "util/strings.h"

namespace otif::baselines {
namespace {

// Refinement: recover a track's true start (dir = -1) or end (dir = +1) by
// probing intermediate frames at successively halved steps, running the
// detector in a small window around the extrapolated position. Charges one
// windowed detector invocation per probe. Returns the extension detections
// found.
std::vector<track::Detection> RefineEndpoint(
    const sim::Clip& clip, const track::Track& t, int dir, int gap,
    double scale, const models::SimulatedDetector& detector,
    models::SimClock* clock) {
  std::vector<track::Detection> extension;
  if (t.detections.size() < 2) return extension;
  const track::Detection& edge =
      dir < 0 ? t.detections.front() : t.detections.back();
  const track::Detection& inner =
      dir < 0 ? t.detections[1] : t.detections[t.detections.size() - 2];
  // Per-frame velocity from the edge pair.
  const int span = std::max(1, std::abs(edge.frame - inner.frame));
  const double vx = (edge.box.cx - inner.box.cx) / span;
  const double vy = (edge.box.cy - inner.box.cy) / span;

  geom::BBox last_box = edge.box;
  int last_frame = edge.frame;
  int step = std::max(1, gap / 2);
  const double window = std::max(edge.box.w, edge.box.h) * 3.0;
  while (step >= 1) {
    const int probe = last_frame + dir * step;
    if (probe < 0 || probe >= clip.num_frames()) {
      step /= 2;
      continue;
    }
    // Windowed detector invocation around the extrapolated position.
    clock->Charge(models::CostCategory::kDetect,
                  models::DetectorWindowSeconds(detector.arch(),
                                                window * scale,
                                                window * scale));
    const geom::BBox predicted =
        last_box.Shifted(vx * dir * step, vy * dir * step);
    const geom::BBox probe_window(predicted.cx, predicted.cy, window, window);
    bool found = false;
    for (const track::Detection& d : detector.Detect(clip, probe, scale)) {
      if (!probe_window.Contains(d.box.Center())) continue;
      if (d.box.Iou(predicted) < 0.05 &&
          d.box.Center().DistanceTo(predicted.Center()) > window / 2) {
        continue;
      }
      track::Detection ext = d;
      ext.frame = probe;
      extension.push_back(ext);
      last_box = d.box;
      last_frame = probe;
      found = true;
      break;
    }
    if (!found) step /= 2;  // Object gone: localize the boundary finer.
  }
  if (dir < 0) std::reverse(extension.begin(), extension.end());
  return extension;
}

}  // namespace

std::vector<std::vector<track::Track>> Miris::RunAtGap(
    const std::vector<sim::Clip>& clips, int gap, double detector_scale,
    models::SimClock* clock) {
  const models::CostConstants& costs = models::DefaultCostConstants();
  const models::DetectorArch arch =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  models::SimulatedDetector detector(arch);

  std::vector<std::vector<track::Track>> out;
  for (const sim::Clip& clip : clips) {
    const sim::DatasetSpec& spec = clip.spec();
    track::IouTracker::Options topts;
    topts.frame_w = spec.width;
    topts.frame_h = spec.height;
    topts.max_misses = 2;
    track::IouTracker tracker(topts);

    // Decode cost at the detector resolution (same model as the pipeline).
    clock->Charge(models::CostCategory::kDecode,
                  models::DecodeSeconds(spec.width, spec.height,
                                        clip.num_frames(), gap,
                                        detector_scale));

    for (int f = 0; f < clip.num_frames(); f += gap) {
      clock->Charge(models::CostCategory::kDetect,
                    detector.FullFrameSeconds(clip, detector_scale));
      track::FrameDetections dets = models::FilterByConfidence(
          detector.Detect(clip, f, detector_scale), 0.4);
      clock->Charge(models::CostCategory::kTrack,
                    costs.sort_sec_per_detection * dets.size());
      tracker.ProcessFrame(f, dets);
    }
    std::vector<track::Track> tracks = tracker.Finish(2);

    // Query-specific refinement: recover each track's true start and end by
    // probing extra frames (this cost repeats per query).
    if (gap > 1) {
      for (track::Track& t : tracks) {
        auto head = RefineEndpoint(clip, t, -1, gap, detector_scale, detector,
                                   clock);
        auto tail = RefineEndpoint(clip, t, +1, gap, detector_scale, detector,
                                   clock);
        t.detections.insert(t.detections.begin(), head.begin(), head.end());
        t.detections.insert(t.detections.end(), tail.begin(), tail.end());
      }
    }
    out.push_back(std::move(tracks));
  }
  return out;
}

std::vector<MethodPoint> Miris::Run(
    const std::vector<sim::Clip>& valid, const std::vector<sim::Clip>& test,
    const core::AccuracyFn& valid_accuracy,
    const core::AccuracyFn& test_accuracy) {
  (void)valid;
  (void)valid_accuracy;
  // Miris exposes its error-tolerance knob, which maps to the sampling gap
  // plan; sweep gaps directly (the validation step would pick the same
  // Pareto set since the curve is monotone in the gap).
  std::vector<MethodPoint> points;
  for (int gap : {1, 2, 4, 8, 16, 32}) {
    models::SimClock clock;
    auto tracks = RunAtGap(test, gap, 1.0, &clock);
    MethodPoint p;
    p.label = StrFormat("miris(gap=%d)", gap);
    p.seconds = clock.TotalSeconds();
    // The entire execution is query-driven: repeat per query.
    p.reusable_seconds = 0.0;
    p.query_seconds = p.seconds;
    p.accuracy = test_accuracy(tracks);
    points.push_back(p);
  }
  return points;
}

}  // namespace otif::baselines
