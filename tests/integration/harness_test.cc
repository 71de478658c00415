// Integration test: the full Table 2 style experiment on the small
// synthetic dataset with a reduced method set, checking the cross-module
// invariants the benches rely on.

#include <gtest/gtest.h>

#include <utility>

#include "eval/harness.h"
#include "obs/run_progress.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace otif::eval {
namespace {

const TrackExperimentResult& SharedResult() {
  static const TrackExperimentResult* result = [] {
    ExperimentOptions options;
    options.scale.train_clips = 2;
    options.scale.valid_clips = 2;
    options.scale.test_clips = 2;
    options.scale.clip_seconds = 10;
    options.scale.proxy_train_steps = 150;
    options.scale.tracker_train_steps = 400;
    options.scale.proxy_resolutions = 2;
    options.methods = {"miris", "chameleon"};
    StatusOr<TrackExperimentResult> result_or =
        RunTrackExperiment(sim::DatasetId::kSynthetic, options);
    OTIF_CHECK(result_or.ok()) << result_or.status().ToString();
    return new TrackExperimentResult(std::move(result_or).value());
  }();
  return *result;
}

TEST(HarnessErrorTest, UnknownMethodReturnsInvalidArgument) {
  // With progress armed (as under OTIF_METRICS_PORT), an unknown name must
  // fail before Prepare runs and leave /statusz's phase idle.
  const bool telemetry_was_enabled = telemetry::Enabled();
  const bool progress_was_enabled = obs::ProgressEnabled();
  telemetry::SetEnabled(true);
  obs::SetProgressEnabled(true);
  obs::RunProgress::Global().SetPhase("idle");
  telemetry::SpanSite* const prepare_span =
      telemetry::GetSpan("harness/prepare");
  const int64_t prepares_before = prepare_span->Sample().count;

  ExperimentOptions options;
  options.scale.train_clips = 1;
  options.scale.valid_clips = 1;
  options.scale.test_clips = 1;
  options.scale.clip_seconds = 5;
  options.scale.proxy_train_steps = 10;
  options.scale.tracker_train_steps = 10;
  options.methods = {"no_such_method"};
  const StatusOr<TrackExperimentResult> result =
      RunTrackExperiment(sim::DatasetId::kSynthetic, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(prepare_span->Sample().count, prepares_before);
  EXPECT_EQ(obs::RunProgress::Global().Snapshot().phase, "idle");

  obs::RunProgress::Global().SetPhase("idle");
  obs::SetProgressEnabled(progress_was_enabled);
  telemetry::SetEnabled(telemetry_was_enabled);
}

TEST(HarnessIntegrationTest, RunsAllRequestedMethods) {
  const TrackExperimentResult& r = SharedResult();
  EXPECT_EQ(r.dataset, "synthetic");
  ASSERT_TRUE(r.curves.count("otif"));
  ASSERT_TRUE(r.curves.count("miris"));
  ASSERT_TRUE(r.curves.count("chameleon"));
  EXPECT_FALSE(r.curves.count("noscope"));
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
