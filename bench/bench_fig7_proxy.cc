// Reproduces Figure 7 on Caldot1.
//   Left: object detection speed (per-frame seconds) vs mAP@50 for YOLOv3
//         alone at varying input resolutions, against YOLOv3 + the
//         segmentation proxy model with k = 1..4 window sizes (k = 1 is
//         detector-only; gains diminish beyond k = 3).
//   Right: precision-recall curves of the per-cell proxy scores at each of
//          the five trained input resolutions.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "core/otif.h"
#include "core/window_select.h"
#include "eval/workload.h"
#include "obs/introspection_server.h"
#include "sim/raster.h"
#include "track/metrics.h"
#include "util/strings.h"

namespace otif {
namespace {

int Main() {
  obs::InitFromEnv();
  core::RunScale scale = bench::BenchScale();
  scale.proxy_resolutions = 5;  // Figure 7 needs all five resolutions.
  std::printf("=== Figure 7: segmentation proxy model on Caldot1 ===\n");
  bench::PrintScale(scale);

  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kCaldot1);
  core::Otif otif_system(workload.spec, scale);
  auto valid = std::make_shared<std::vector<sim::Clip>>(
      otif_system.ValidClips());
  const core::AccuracyFn valid_fn = workload.MakeAccuracyFn(valid.get());
  core::Tuner::Options topts;
  topts.max_iterations = 4;  // Models are what matters here, not the curve.
  otif_system.Prepare(valid_fn, topts);

  const auto test = otif_system.TestClips();
  const models::DetectorArch arch =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  models::SimulatedDetector detector(arch);

  // ~50 labeled frames sampled across the test clips (paper: 50
  // hand-labeled frames).
  struct LabeledFrame {
    const sim::Clip* clip;
    int frame;
  };
  std::vector<LabeledFrame> frames;
  for (const sim::Clip& clip : test) {
    for (int f = 0; f < clip.num_frames();
         f += std::max(1, clip.num_frames() * static_cast<int>(test.size()) /
                              50)) {
      frames.push_back({&clip, f});
    }
  }

  // --- Left: mAP@50 vs detection time ---
  std::printf("# left: detector speed vs mAP@50\n");
  std::printf("series,per_frame_sec,map50\n");
  auto map_for = [&](double det_scale,
                     const std::vector<core::WindowSize>* sizes,
                     models::ProxyModel* proxy, double threshold,
                     double* per_frame_sec) {
    std::vector<track::Detection> all_dets, all_gt;
    double time_sum = 0.0;
    for (const LabeledFrame& lf : frames) {
      const auto gt = lf.clip->GroundTruthDetections(lf.frame);
      for (const auto& g : gt) all_gt.push_back(g);
      track::FrameDetections dets = detector.Detect(*lf.clip, lf.frame,
                                                    det_scale);
      if (sizes != nullptr && proxy != nullptr) {
        sim::Rasterizer raster(lf.clip);
        const nn::Tensor scores = proxy->Score(raster.Render(
            lf.frame, proxy->resolution().raster_w(),
            proxy->resolution().raster_h()));
        const core::CellGrid grid =
            core::CellGrid::FromScores(scores, threshold);
        std::vector<core::WindowSize> scaled;
        for (const core::WindowSize& s : *sizes) {
          scaled.push_back({static_cast<int>(std::ceil(s.w * det_scale)),
                            static_cast<int>(std::ceil(s.h * det_scale))});
        }
        const double sw = workload.spec.width * det_scale;
        const double sh = workload.spec.height * det_scale;
        if (grid.CountPositive() == 0) {
          dets.clear();
        } else {
          const core::GroupingResult grouping =
              core::GroupCells(grid, scaled, arch, sw, sh);
          time_sum += grouping.est_seconds;
          dets = models::FilterByWindows(
              dets, core::WindowsToNativeRects(grouping, sw, sh, grid.grid_w,
                                               grid.grid_h, det_scale));
        }
        time_sum += 3.0e-4;  // Proxy inference.
      } else {
        time_sum += models::DetectorWindowSeconds(
            arch, workload.spec.width * det_scale,
            workload.spec.height * det_scale);
      }
      for (const auto& d : dets) all_dets.push_back(d);
    }
    *per_frame_sec = time_sum / frames.size();
    return track::AveragePrecision50(all_dets, all_gt);
  };

  const std::vector<double> det_scales = {1.0, 0.77, 0.59, 0.45, 0.35, 0.27};
  for (double s : det_scales) {
    double sec = 0.0;
    const double map = map_for(s, nullptr, nullptr, 0.0, &sec);
    std::printf("yolov3_only,%.5f,%.3f\n", sec, map);
  }
  // Proxy + windows at k = 1..4.
  models::ProxyModel* proxy = otif_system.trained().proxies[0].get();
  for (int k = 1; k <= 4; ++k) {
    // Re-select W with cardinality k from oracle grids.
    std::vector<core::CellGrid> grids;
    for (const LabeledFrame& lf : frames) {
      const nn::Tensor labels = proxy->MakeLabels(
          lf.clip->GroundTruthDetections(lf.frame), workload.spec.width,
          workload.spec.height);
      core::CellGrid g;
      g.grid_w = proxy->resolution().grid_w();
      g.grid_h = proxy->resolution().grid_h();
      g.positive.assign(static_cast<size_t>(g.grid_w) * g.grid_h, 0);
      for (int64_t i = 0; i < labels.size(); ++i) {
        g.positive[static_cast<size_t>(i)] = labels[i] > 0.5f ? 1 : 0;
      }
      grids.push_back(std::move(g));
    }
    core::WindowSizeSelector::Options wopts;
    wopts.k = k;
    core::WindowSizeSelector selector(workload.spec.width,
                                      workload.spec.height, wopts);
    const auto sizes = selector.Select(grids, arch);
    for (double s : det_scales) {
      double sec = 0.0;
      const double map = map_for(s, &sizes, proxy, 0.35, &sec);
      std::printf("proxy_k%d,%.5f,%.3f\n", k, sec, map);
    }
  }

  // --- Right: per-cell precision-recall per resolution ---
  std::printf("\n# right: proxy per-cell precision-recall\n");
  std::printf("resolution,threshold,precision,recall\n");
  for (const auto& proxy_ptr : otif_system.trained().proxies) {
    models::ProxyModel* p = proxy_ptr.get();
    std::vector<double> scores;
    std::vector<int> labels;
    for (const LabeledFrame& lf : frames) {
      sim::Rasterizer raster(lf.clip);
      const nn::Tensor s = p->Score(raster.Render(
          lf.frame, p->resolution().raster_w(), p->resolution().raster_h()));
      const nn::Tensor l = p->MakeLabels(
          lf.clip->GroundTruthDetections(lf.frame), workload.spec.width,
          workload.spec.height);
      for (int64_t i = 0; i < s.size(); ++i) {
        scores.push_back(s[i]);
        labels.push_back(l[i] > 0.5f ? 1 : 0);
      }
    }
    const auto curve = track::PrecisionRecallCurve(scores, labels, 11);
    for (const track::PrPoint& pt : curve) {
      std::printf("%dx%d,%.2f,%.3f,%.3f\n", p->resolution().world_w,
                  p->resolution().world_h, pt.threshold, pt.precision,
                  pt.recall);
    }
  }
  return 0;
}

}  // namespace
}  // namespace otif

int main() { return otif::Main(); }
