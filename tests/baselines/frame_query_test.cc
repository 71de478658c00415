#include "baselines/frame_query.h"

#include <gtest/gtest.h>

#include "baselines/blazeit.h"
#include "baselines/tasti.h"
#include "eval/workload.h"
#include "sim/raster.h"

namespace otif::baselines {
namespace {

std::vector<sim::Clip> TestClips(int n = 2, int frames = 150) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < n; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 0, c), frames));
  }
  return clips;
}

TEST(FrameTargetTest, CountTarget) {
  const FrameTarget t = CountTarget();
  EXPECT_DOUBLE_EQ(t({}), 0.0);
  EXPECT_DOUBLE_EQ(t({geom::BBox(1, 1, 2, 2), geom::BBox(5, 5, 2, 2)}), 2.0);
}

TEST(FrameTargetTest, RegionTarget) {
  const FrameTarget t =
      RegionTarget(geom::Polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}}));
  EXPECT_DOUBLE_EQ(t({geom::BBox(5, 5, 2, 2), geom::BBox(50, 50, 2, 2)}),
                   1.0);
}

TEST(FrameTargetTest, HotSpotTarget) {
  const FrameTarget t = HotSpotTarget(20.0);
  EXPECT_DOUBLE_EQ(t({geom::BBox(0, 0, 2, 2), geom::BBox(10, 0, 2, 2),
                      geom::BBox(100, 100, 2, 2)}),
                   2.0);
}

TEST(CountRegressorTest, LearnsToCount) {
  // Frames with k bright blocks; the regressor must learn to count them.
  Rng rng(5);
  CountRegressor reg(1);
  auto make_frame = [&](int k) {
    video::Image img(32, 32, 0.2f);
    for (int i = 0; i < k; ++i) {
      const int x = 3 + static_cast<int>(rng.UniformInt(uint64_t{24}));
      const int y = 3 + static_cast<int>(rng.UniformInt(uint64_t{24}));
      for (int dy = 0; dy < 4; ++dy) {
        for (int dx = 0; dx < 4; ++dx) img.set(x + dx, y + dy, 0.95f);
      }
    }
    return img;
  };
  for (int step = 0; step < 600; ++step) {
    const int k = static_cast<int>(rng.UniformInt(uint64_t{5}));
    reg.TrainStep(make_frame(k), k);
  }
  // Prediction should correlate with the true count.
  double low = 0, high = 0;
  for (int i = 0; i < 20; ++i) {
    low += reg.Predict(make_frame(0));
    high += reg.Predict(make_frame(4));
  }
  EXPECT_LT(low / 20 + 1.0, high / 20)
      << "regressor does not separate 0 objects from 4";
}

TEST(CountRegressorDeathTest, RejectsFrameNotAt32x32) {
  CountRegressor regressor(5);
  EXPECT_DEATH(regressor.Predict(video::Image(64, 64)),
               "count regressor input is 32x32, got 64x64");
  EXPECT_DEATH(regressor.TrainStep(video::Image(32, 16), 1.0),
               "count regressor input is 32x32, got 32x16");
}

TEST(VerifyByScoreTest, RespectsLimitAndSeparation) {
  const auto clips = TestClips(1, 200);
  // Oracle scores: ground-truth counts.
  std::vector<std::pair<double, FrameRef>> scored;
  for (int f = 0; f < clips[0].num_frames(); ++f) {
    scored.push_back({static_cast<double>(GtVehicleBoxes(clips[0], f).size()),
                      FrameRef{0, f}});
  }
  query::CountPredicate predicate(1);
  FrameQueryReport report;
  VerifyByScore(clips, scored, predicate, 5, 20, &report);
  EXPECT_LE(report.output_frames.size(), 5u);
  for (size_t i = 0; i < report.output_frames.size(); ++i) {
    for (size_t j = i + 1; j < report.output_frames.size(); ++j) {
      EXPECT_GE(std::abs(report.output_frames[i].frame -
                         report.output_frames[j].frame),
                20);
    }
  }
  EXPECT_GT(report.detector_invocations, 0);
  EXPECT_GT(report.query_seconds, 0.0);
  EXPECT_GT(report.accuracy, 0.7);
}

TEST(BlazeItTest, EndToEndQuery) {
  const auto clips = TestClips(2, 120);
  BlazeIt::Options opts;
  opts.train_steps = 200;
  opts.limit = 5;
  opts.min_separation_sec = 2;
  query::CountPredicate predicate(1);
  const FrameQueryReport report = BlazeIt::RunQuery(
      clips, clips, CountTarget(), predicate, opts, 77);
  EXPECT_GT(report.preprocess_seconds, 0.0);
  EXPECT_GT(report.detector_invocations, 0);
  EXPECT_GT(report.accuracy, 0.5);
}

TEST(TastiTest, IndexReusableAcrossQueries) {
  const auto clips = TestClips(1, 100);
  const Tasti::Index index = Tasti::BuildIndex(clips);
  EXPECT_EQ(index.embeddings.size(), 100u);
  EXPECT_GT(index.preprocess_seconds, 0.0);

  Tasti::Options opts;
  opts.limit = 5;
  opts.min_separation_sec = 2;
  opts.reference_frames = 100;
  query::CountPredicate p1(1);
  query::CountPredicate p2(2);
  const FrameQueryReport r1 =
      Tasti::RunQuery(index, clips, clips, CountTarget(), p1, opts, 5);
  const FrameQueryReport r2 =
      Tasti::RunQuery(index, clips, clips, CountTarget(), p2, opts, 5);
  // Same (reusable) pre-processing cost reported for both queries.
  EXPECT_DOUBLE_EQ(r1.preprocess_seconds, r2.preprocess_seconds);
  EXPECT_GT(r1.query_seconds, 0.0);
}

TEST(EvalWorkloadTest, CalibrationBoundsMatchRate) {
  const auto clips = TestClips(2, 200);
  eval::FrameQuerySpec spec;
  spec.dataset = sim::DatasetId::kSynthetic;
  spec.kind = "count";
  eval::CalibrateFrameQuery(clips, 0.2, &spec);
  ASSERT_GE(spec.n, 2);
  const auto predicate = spec.MakePredicate();
  int64_t matches = 0, frames = 0;
  for (const auto& clip : clips) {
    for (int f = 0; f < clip.num_frames(); ++f) {
      if (query::GroundTruthMatches(clip, f, *predicate)) ++matches;
      ++frames;
    }
  }
  // Either within the bound, or calibration stepped back from zero matches.
  EXPECT_LE(static_cast<double>(matches) / frames, 0.35);
}

TEST(EvalWorkloadTest, StandardFrameQueriesCoverPaperSet) {
  const auto queries = eval::StandardFrameQueries();
  ASSERT_EQ(queries.size(), 6u);
  int count = 0, region = 0, hotspot = 0;
  for (const auto& q : queries) {
    if (q.kind == "count") ++count;
    if (q.kind == "region") ++region;
    if (q.kind == "hotspot") ++hotspot;
  }
  EXPECT_EQ(count, 2);
  EXPECT_EQ(region, 2);
  EXPECT_EQ(hotspot, 2);
}

}  // namespace
}  // namespace otif::baselines
