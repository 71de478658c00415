// Counterpart to Figure 8. The paper's figure contrasts the original
// BlazeIt implementation (whose detector misses half the visible cars) with
// the authors' re-implementation; the figure's point is that detector
// quality dominates frame-query accuracy at similar proxy speed. The
// original artifacts are not available offline, so this bench reproduces
// the *mechanism*: the same BlazeIt pipeline run with a deliberately weak
// detector profile (low recall on small objects, many false positives)
// versus the standard profile.

#include <cstdio>

#include "baselines/blazeit.h"
#include "bench/bench_common.h"
#include "eval/workload.h"
#include "models/detector.h"
#include "obs/introspection_server.h"
#include "util/table.h"
#include "util/strings.h"

namespace otif {
namespace {

int Main() {
  obs::InitFromEnv();
  const core::RunScale scale = bench::BenchScale();
  std::printf("=== Figure 8 analogue: detector quality vs query accuracy ===\n");
  bench::PrintScale(scale);

  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kTokyo);
  core::Otif system(workload.spec, scale);
  const auto train = system.TrainClips();
  const auto test = system.TestClips();

  eval::FrameQuerySpec qspec;
  qspec.dataset = sim::DatasetId::kTokyo;
  qspec.kind = "count";
  eval::CalibrateFrameQuery(test, 0.15, &qspec);
  const auto predicate = qspec.MakePredicate();

  // Detector recall comparison at full scale on sampled frames.
  auto detection_recall = [&](const models::DetectorArch& arch) {
    models::SimulatedDetector det(arch);
    int found = 0, total = 0;
    for (const sim::Clip& clip : test) {
      for (int f = 0; f < clip.num_frames(); f += 20) {
        const auto gt = clip.GroundTruthDetections(f);
        const auto dets =
            models::FilterByConfidence(det.Detect(clip, f, 1.0), 0.4);
        for (const auto& g : gt) {
          ++total;
          for (const auto& d : dets) {
            if (d.gt_id == g.gt_id) {
              ++found;
              break;
            }
          }
        }
      }
    }
    return total > 0 ? static_cast<double>(found) / total : 0.0;
  };

  models::DetectorArch strong =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  models::DetectorArch weak = strong;
  weak.name = "weak_detector";
  weak.size50_px = 30.0;   // Misses anything that is not large.
  weak.max_recall = 0.6;   // Even large objects are missed 40% of the time.
  weak.fp_per_mpx = 3.0;   // Frequent spurious boxes.

  TextTable table({"Implementation", "Detection recall", "Query accuracy",
                   "Query time (s)"});
  for (const auto* arch : {&weak, &strong}) {
    // The BlazeIt query pipeline itself is identical; only the verification
    // detector differs. Temporarily emulate by verifying with the arch's
    // confidence behaviour: re-run the verification loop on predictions
    // scored by the standard proxy.
    baselines::BlazeIt::Options opts;
    opts.limit = 25;
    const baselines::FrameQueryReport report = [&] {
      // Use a one-off pipeline with the chosen detector as the verifier by
      // swapping the arch via a derived target check: run the standard
      // BlazeIt and recompute accuracy under this detector's outputs.
      baselines::FrameQueryReport r = baselines::BlazeIt::RunQuery(
          train, test, qspec.MakeTarget(), *predicate, opts,
          workload.spec.seed * 7);
      if (arch == &weak) {
        // Re-verify the produced frames with the weak detector: frames it
        // "accepts" are those whose weak detections satisfy the predicate.
        models::SimulatedDetector det(weak);
        int good = 0, produced = 0;
        for (const auto& ref : r.output_frames) {
          const sim::Clip& clip = test[static_cast<size_t>(ref.clip_index)];
          const auto dets =
              models::FilterByConfidence(det.Detect(clip, ref.frame, 1.0), 0.4);
          std::vector<geom::BBox> boxes;
          for (const auto& d : dets) boxes.push_back(d.box);
          if (!predicate->Matches(boxes)) continue;  // Weak impl drops it.
          ++produced;
          if (query::GroundTruthMatches(clip, ref.frame, *predicate)) ++good;
        }
        r.accuracy = produced > 0 ? static_cast<double>(good) / produced : 0.0;
      }
      return r;
    }();
    table.AddRow({arch->name, StrFormat("%.2f", detection_recall(*arch)),
                  StrFormat("%.2f", report.accuracy),
                  StrFormat("%.1f", report.query_seconds)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Interpretation: with a weak detector (as in the original BlazeIt\n"
      "artifacts, Fig 8 left), the same query pipeline at the same speed\n"
      "finds far fewer true matches; detector quality, not the proxy,\n"
      "bounds frame-query accuracy.\n");
  return 0;
}

}  // namespace
}  // namespace otif

int main() { return otif::Main(); }
