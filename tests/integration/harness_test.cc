// Integration test: the full Table 2 style experiment on the small
// synthetic dataset, checking the cross-module invariants the benches rely
// on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/harness.h"

namespace otif::eval {
namespace {

const TrackExperimentResult& SharedResult() {
  static const TrackExperimentResult* result = [] {
    core::RunScale scale;
    scale.train_clips = 2;
    scale.valid_clips = 2;
    scale.test_clips = 2;
    scale.clip_seconds = 10;
    scale.proxy_train_steps = 150;
    scale.tracker_train_steps = 400;
    scale.proxy_resolutions = 2;
    return new TrackExperimentResult(
        RunTrackExperiment(sim::DatasetId::kSynthetic, scale));
  }();
  return *result;
}

TEST(HarnessIntegrationTest, RunsAllRequestedMethods) {
  const TrackExperimentResult& r = SharedResult();
  EXPECT_EQ(r.dataset, "synthetic");
  ASSERT_TRUE(r.curves.count("otif"));
  ASSERT_TRUE(r.curves.count("miris"));
  ASSERT_TRUE(r.curves.count("chameleon"));
  ASSERT_TRUE(r.curves.count("noscope"));
  ASSERT_TRUE(r.curves.count("catdet"));
  ASSERT_TRUE(r.curves.count("centertrack"));
  EXPECT_EQ(r.curves.size(), 6u);
}

TEST(HarnessIntegrationTest, SkipsCenterTrackOnMovingCamera) {
  // UAV's camera moves, so the harness runs every baseline but CenterTrack
  // (the paper's "-" for UAV in Table 2).
  core::RunScale scale;
  scale.train_clips = 1;
  scale.valid_clips = 1;
  scale.test_clips = 1;
  scale.clip_seconds = 5;
  scale.proxy_train_steps = 10;
  scale.tracker_train_steps = 10;
  const TrackExperimentResult r =
      RunTrackExperiment(sim::DatasetId::kUav, scale);
  std::vector<std::string> methods;
  for (const auto& [method, points] : r.curves) methods.push_back(method);
  EXPECT_EQ(methods, (std::vector<std::string>{"catdet", "chameleon", "miris",
                                                "noscope", "otif"}));
}

TEST(HarnessIntegrationTest, EveryMethodHasPositivePoints) {
  const TrackExperimentResult& r = SharedResult();
  for (const auto& [method, points] : r.curves) {
    ASSERT_FALSE(points.empty()) << method;
    for (const auto& p : points) {
      EXPECT_GT(p.seconds, 0.0) << method;
      EXPECT_GE(p.accuracy, 0.0) << method;
      EXPECT_LE(p.accuracy, 1.0) << method;
      EXPECT_NEAR(p.reusable_seconds + p.query_seconds, p.seconds, 1e-9)
          << method << " cost decomposition must sum to the total";
    }
  }
  EXPECT_GT(r.best_accuracy, 0.5);
}

TEST(HarnessIntegrationTest, OtifCurveIncludesThetaBestAnchor) {
  const TrackExperimentResult& r = SharedResult();
  // The first OTIF curve point is theta_best (SORT, no proxy).
  const auto& first = r.otif->curve().front();
  EXPECT_EQ(first.config.tracker, core::TrackerKind::kSort);
  EXPECT_FALSE(first.config.use_proxy);
}

TEST(HarnessIntegrationTest, MirisFiveQueryCostIsFiveTimes) {
  const TrackExperimentResult& r = SharedResult();
  for (const auto& p : r.curves.at("miris")) {
    EXPECT_NEAR(SecondsForQueries(p, 5), 5 * SecondsForQueries(p, 1), 1e-9);
  }
  for (const auto& p : r.curves.at("otif")) {
    EXPECT_NEAR(SecondsForQueries(p, 5), SecondsForQueries(p, 1), 1e-9);
  }
}

TEST(HarnessIntegrationTest, OtifCompetitiveOnSyntheticData) {
  const TrackExperimentResult& r = SharedResult();
  const auto* otif_pick = baselines::FastestWithinTolerance(
      r.curves.at("otif"), r.best_accuracy, 0.1);
  const auto* miris_pick = baselines::FastestWithinTolerance(
      r.curves.at("miris"), r.best_accuracy, 0.1);
  // At five queries OTIF must beat Miris decisively (the paper's headline).
  EXPECT_LT(SecondsForQueries(*otif_pick, 5),
            SecondsForQueries(*miris_pick, 5));
}

}  // namespace
}  // namespace otif::eval
