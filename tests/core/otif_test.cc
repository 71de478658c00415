#include "core/otif.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/cell_grouping.h"
#include "eval/workload.h"
#include "models/cost_model.h"
#include "models/detector.h"
#include "query/queries.h"
#include "sim/raster.h"
#include "track/metrics.h"
#include "util/thread_pool.h"

namespace otif::core {
namespace {

// Small scale for test speed; one shared prepared instance.
RunScale TestScale() {
  RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 2;
  scale.test_clips = 2;
  scale.clip_seconds = 12;
  scale.proxy_train_steps = 300;
  scale.tracker_train_steps = 700;
  scale.proxy_resolutions = 2;
  scale.window_sample_frames = 16;
  return scale;
}

struct PreparedOtif {
  std::unique_ptr<Otif> otif;
  std::vector<sim::Clip> valid;
  std::vector<sim::Clip> test;
  AccuracyFn valid_fn;
  AccuracyFn test_fn;
};

PreparedOtif* Shared() {
  static PreparedOtif* shared = [] {
    auto* p = new PreparedOtif;
    eval::TrackWorkload workload =
        eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
    p->otif = std::make_unique<Otif>(workload.spec, TestScale());
    p->valid = p->otif->ValidClips();
    p->test = p->otif->TestClips();
    p->valid_fn = workload.MakeAccuracyFn(&p->valid);
    p->test_fn = workload.MakeAccuracyFn(&p->test);
    Tuner::Options topts;
    topts.max_iterations = 6;
    p->otif->Prepare(p->valid_fn, topts);
    return p;
  }();
  return shared;
}

TEST(OtifTest, ClipSplitsAreDisjointAndDeterministic) {
  eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
  Otif otif(workload.spec, TestScale());
  const auto train = otif.TrainClips();
  const auto valid = otif.ValidClips();
  EXPECT_EQ(train.size(), 2u);
  EXPECT_EQ(valid.size(), 2u);
  EXPECT_NE(train[0].clip_seed(), valid[0].clip_seed());
  const auto train_again = otif.TrainClips();
  EXPECT_EQ(train[0].clip_seed(), train_again[0].clip_seed());
  EXPECT_EQ(train[0].objects().size(), train_again[0].objects().size());
}

TEST(OtifTest, PrepareProducesCurveAndModels) {
  PreparedOtif* p = Shared();
  EXPECT_GT(p->otif->theta_best_accuracy(), 0.4);
  EXPECT_EQ(p->otif->trained().proxies.size(), 2u);
  EXPECT_NE(p->otif->trained().tracker_net, nullptr);
  EXPECT_NE(p->otif->trained().refiner, nullptr);
  EXPECT_GE(p->otif->trained().window_sizes.size(), 2u);
  ASSERT_GE(p->otif->curve().size(), 3u);
}

TEST(OtifTest, CurveTradesSpeedForAccuracy) {
  PreparedOtif* p = Shared();
  const auto& curve = p->otif->curve();
  // Later points must be faster than the first point.
  EXPECT_LT(curve.back().val_seconds, curve.front().val_seconds * 0.7);
  // The best point on the curve should be reasonably accurate.
  double best_acc = 0.0;
  for (const TunerPoint& tp : curve) {
    best_acc = std::max(best_acc, tp.val_accuracy);
  }
  EXPECT_GT(best_acc, 0.5);
}

TEST(OtifTest, FastestWithinToleranceIsFasterThanBest) {
  PreparedOtif* p = Shared();
  const TunerPoint& pick = p->otif->FastestWithinTolerance(0.10);
  double best_acc = 0.0;
  for (const TunerPoint& tp : p->otif->curve()) {
    best_acc = std::max(best_acc, tp.val_accuracy);
  }
  EXPECT_GE(pick.val_accuracy, best_acc - 0.10);
  for (const TunerPoint& tp : p->otif->curve()) {
    if (tp.val_accuracy >= best_acc - 0.10) {
      EXPECT_LE(pick.val_seconds, tp.val_seconds);
    }
  }
}

TEST(OtifTest, ExecuteOnTestSetHoldsAccuracy) {
  PreparedOtif* p = Shared();
  const TunerPoint& pick = p->otif->FastestWithinTolerance(0.10);
  EvalResult r = p->otif->Execute(pick.config, p->test, p->test_fn);
  EXPECT_EQ(r.tracks_per_clip.size(), p->test.size());
  EXPECT_GT(r.accuracy, 0.35) << "test accuracy collapsed vs validation "
                              << pick.val_accuracy;
  EXPECT_GT(r.seconds, 0.0);
}

TEST(OtifTest, TunedConfigUsesSpeedups) {
  // The fastest curve point must use at least one speedup mechanism
  // (gap > 1, proxy, or reduced resolution).
  PreparedOtif* p = Shared();
  const auto& curve = p->otif->curve();
  const PipelineConfig& last = curve.back().config;
  EXPECT_TRUE(last.sampling_gap > 1 || last.use_proxy ||
              last.detector_scale < 0.99);
}

TEST(OtifTest, TracksSupportDownstreamQueries) {
  // End-to-end: extracted tracks answer a hard-braking query without
  // touching video again (the paper's core workflow claim).
  PreparedOtif* p = Shared();
  const TunerPoint& pick = p->otif->FastestWithinTolerance(0.10);
  EvalResult r = p->otif->Execute(pick.config, p->test, p->test_fn);
  for (size_t c = 0; c < p->test.size(); ++c) {
    const auto braking = query::FindHardBrakingTracks(
        r.tracks_per_clip[c], p->test[c].spec(), 3.0);
    // No crash and plausible cardinality.
    EXPECT_LE(braking.size(), r.tracks_per_clip[c].size());
  }
}

TEST(OtifTest, PrepareIsIdenticalAcrossPoolWidths) {
  // Prepare trains its proxies and the tracker net as concurrent tasks;
  // every trained artifact must be bitwise the same at one lane and at
  // four.
  RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 1;
  scale.test_clips = 1;
  scale.clip_seconds = 8;
  scale.proxy_train_steps = 30;
  scale.tracker_train_steps = 60;
  scale.proxy_resolutions = 3;
  scale.window_sample_frames = 8;
  Tuner::Options topts;
  topts.max_iterations = 2;
  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
  const int previous_width = ThreadPool::Default()->num_threads();

  std::vector<std::unique_ptr<Otif>> runs;
  for (const int width : {1, 4}) {
    ThreadPool::SetDefaultThreads(width);
    auto otif = std::make_unique<Otif>(workload.spec, scale);
    const std::vector<sim::Clip> valid = otif->ValidClips();
    otif->Prepare(workload.MakeAccuracyFn(&valid), topts);
    runs.push_back(std::move(otif));
  }
  ThreadPool::SetDefaultThreads(previous_width);
  const Otif& serial = *runs[0];
  const Otif& parallel = *runs[1];

  // Proxies: each resolution's scores on a fixed frame.
  const std::vector<sim::Clip> test = serial.TestClips();
  sim::Rasterizer raster(&test[0]);
  ASSERT_EQ(serial.trained().proxies.size(), 3u);
  ASSERT_EQ(parallel.trained().proxies.size(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    const models::ProxyModel& a = *serial.trained().proxies[r];
    const models::ProxyModel& b = *parallel.trained().proxies[r];
    EXPECT_EQ(a.train_steps(), scale.proxy_train_steps);
    const video::Image frame = raster.Render(
        test[0].num_frames() / 2, a.resolution().raster_w(),
        a.resolution().raster_h());
    const nn::Tensor sa = a.Score(frame);
    const nn::Tensor sb = b.Score(frame);
    ASSERT_EQ(sa.size(), sb.size());
    for (int64_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << "proxy " << r << " cell " << i;
    }
  }

  // Tracker net: a pair score on fixed features.
  const models::TrackerNet& ta = *serial.trained().tracker_net;
  const models::TrackerNet& tb = *parallel.trained().tracker_net;
  EXPECT_GT(ta.train_steps(), 0);
  EXPECT_EQ(ta.train_steps(), tb.train_steps());
  track::Detection prev, last, cand;
  prev.box = geom::BBox{100, 80, 30, 20};
  last.box = geom::BBox{110, 84, 30, 20};
  cand.box = geom::BBox{121, 87, 31, 21};
  const double fps = workload.spec.fps;
  const double fw = workload.spec.width, fh = workload.spec.height;
  const nn::Tensor first =
      models::TrackerNet::DetFeature(last, 2, fps, fw, fh, 0.4, 0.1);
  const nn::Tensor next =
      models::TrackerNet::DetFeature(cand, 2, fps, fw, fh, 0.45, 0.12);
  const nn::Tensor pair =
      models::TrackerNet::PairFeature(prev, last, cand, fps, fw, fh);
  EXPECT_EQ(ta.ScorePair(ta.Advance(ta.InitialHidden(), first), next, pair),
            tb.ScorePair(tb.Advance(tb.InitialHidden(), first), next, pair));

  // Window sizes, the curve, and the simulated set-up cost.
  EXPECT_EQ(serial.trained().window_sizes, parallel.trained().window_sizes);
  ASSERT_EQ(serial.curve().size(), parallel.curve().size());
  for (size_t i = 0; i < serial.curve().size(); ++i) {
    const TunerPoint& a = serial.curve()[i];
    const TunerPoint& b = parallel.curve()[i];
    EXPECT_EQ(a.config.ToString(), b.config.ToString()) << "point " << i;
    EXPECT_EQ(a.val_seconds, b.val_seconds) << "point " << i;
    EXPECT_EQ(a.val_accuracy, b.val_accuracy) << "point " << i;
  }
  EXPECT_EQ(serial.simulated_training_seconds(),
            parallel.simulated_training_seconds());
}

TEST(TunerTest, ProxyProfilesMatchPerFrameReference) {
  // The caching phase takes theta_best's detections once per sampled frame
  // and scores frames through the score cache. Its profiles must equal,
  // bit for bit, a reference built frame by frame: Render + Score per
  // resolution, and Detect + GroupCells + DetectionCoverage per (frame,
  // threshold).
  PreparedOtif* p = Shared();
  const TrainedModels& trained = p->otif->trained();
  const PipelineConfig& theta_best = p->otif->theta_best();
  Tuner::Options topts;
  topts.max_iterations = 0;
  Tuner tuner(&p->valid, &trained, p->valid_fn, topts);
  tuner.Run(theta_best);
  const std::vector<Tuner::ProxyProfile>& profiles = tuner.proxy_profiles();
  const std::vector<double> thresholds = StandardProxyThresholds();
  ASSERT_EQ(profiles.size(), trained.proxies.size() * thresholds.size());

  const sim::DatasetSpec& spec = p->valid[0].spec();
  const models::DetectorArch arch = models::ArchByName(
      models::StandardDetectorArchs(), theta_best.detector_arch);
  const double full_cost =
      models::DetectorWindowSeconds(arch, spec.width, spec.height);
  const models::CostConstants& costs = models::DefaultCostConstants();
  const models::SimulatedDetector detector(arch);
  const int stride = std::max(theta_best.sampling_gap, 8);
  size_t next = 0;
  for (size_t res = 0; res < trained.proxies.size(); ++res) {
    const models::ProxyModel& proxy = *trained.proxies[res];
    std::vector<std::pair<const sim::Clip*, int>> frames;
    std::vector<nn::Tensor> scores;
    for (const sim::Clip& clip : p->valid) {
      sim::Rasterizer raster(&clip);
      for (int f = 0; f < clip.num_frames(); f += stride) {
        frames.emplace_back(&clip, f);
        scores.push_back(proxy.Score(raster.Render(
            f, proxy.resolution().raster_w(), proxy.resolution().raster_h())));
      }
    }
    ASSERT_FALSE(frames.empty());
    for (const double threshold : thresholds) {
      double cost_sum = 0.0;
      double recall_sum = 0.0;
      for (size_t i = 0; i < frames.size(); ++i) {
        const CellGrid grid = CellGrid::FromScores(scores[i], threshold);
        GroupingResult grouping;
        std::vector<geom::BBox> rects;
        if (grid.CountPositive() > 0) {
          grouping = GroupCells(grid, trained.window_sizes, arch, spec.width,
                                spec.height);
          rects = WindowsToNativeRects(grouping, spec.width, spec.height,
                                       grid.grid_w, grid.grid_h, 1.0);
        }
        cost_sum += grouping.est_seconds / full_cost;
        const track::FrameDetections dets = models::FilterByConfidence(
            detector.Detect(*frames[i].first, frames[i].second,
                            theta_best.detector_scale),
            theta_best.detector_confidence);
        recall_sum += track::DetectionCoverage(dets, rects);
      }
      const double n = static_cast<double>(frames.size());
      const Tuner::ProxyProfile& got = profiles[next++];
      EXPECT_EQ(got.resolution_index, static_cast<int>(res));
      EXPECT_EQ(got.threshold, threshold);
      EXPECT_EQ(got.proxy_sec_per_frame,
                costs.proxy_sec_per_frame +
                    costs.proxy_sec_per_pixel *
                        proxy.resolution().world_pixels());
      EXPECT_EQ(got.relative_detector_cost, cost_sum / n)
          << "resolution " << res << " threshold " << threshold;
      EXPECT_EQ(got.recall, recall_sum / n)
          << "resolution " << res << " threshold " << threshold;
    }
  }
}

}  // namespace
}  // namespace otif::core
