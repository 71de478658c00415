// Telemetry integration tests for the staged pipeline: instrumentation is
// observation-only (telemetry on vs. off must not change a single bit of
// the outputs), and the stage spans / sim-second accumulators the benches
// read must agree with the run's own SimClock.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/best_config.h"
#include "core/otif.h"
#include "core/pipeline.h"
#include "eval/workload.h"
#include "models/cost_model.h"
#include "models/proxy.h"
#include "query/queries.h"
#include "sim/dataset.h"
#include "track/metrics.h"
#include "track/refine.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::core {
namespace {

std::vector<sim::Clip> MakeClips(int n = 3, int frames = 100) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < n; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 5, c), frames));
  }
  return clips;
}

AccuracyFn CountAccuracyFn(const std::vector<sim::Clip>* clips) {
  return [clips](const std::vector<std::vector<track::Track>>& per_clip) {
    double sum = 0.0;
    for (size_t c = 0; c < clips->size(); ++c) {
      const int gt = query::GroundTruthVehicleCount((*clips)[c], 10);
      const int est = query::CountVehicleTracks(per_clip[c], 10);
      sum += track::CountAccuracy(est, gt);
    }
    return sum / static_cast<double>(clips->size());
  };
}

/// Untrained proxy + hand-picked windows: enough to drive the proxy stage
/// and the score cache deterministically without paying for training.
std::unique_ptr<TrainedModels> MakeUntrainedProxy() {
  auto trained = std::make_unique<TrainedModels>();
  trained->proxies.push_back(std::make_unique<models::ProxyModel>(
      models::StandardProxyResolutions()[0], /*seed=*/77));
  // The largest window must cover the full synthetic frame (320x240).
  trained->window_sizes = {WindowSize{64, 64}, WindowSize{128, 96},
                           WindowSize{320, 240}};
  return trained;
}

void ExpectIdentical(const EvalResult& a, const EvalResult& b) {
  for (const models::CostCategory cat :
       {models::CostCategory::kDecode, models::CostCategory::kProxy,
        models::CostCategory::kDetect, models::CostCategory::kTrack,
        models::CostCategory::kRefine}) {
    EXPECT_EQ(a.clock.Seconds(cat), b.clock.Seconds(cat))
        << "category " << static_cast<int>(cat);
  }
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.accuracy, b.accuracy);
  ASSERT_EQ(a.tracks_per_clip.size(), b.tracks_per_clip.size());
  for (size_t c = 0; c < a.tracks_per_clip.size(); ++c) {
    const auto& ta = a.tracks_per_clip[c];
    const auto& tb = b.tracks_per_clip[c];
    ASSERT_EQ(ta.size(), tb.size()) << "clip " << c;
    for (size_t t = 0; t < ta.size(); ++t) {
      EXPECT_EQ(ta[t].id, tb[t].id);
      ASSERT_EQ(ta[t].detections.size(), tb[t].detections.size());
      for (size_t d = 0; d < ta[t].detections.size(); ++d) {
        const track::Detection& da = ta[t].detections[d];
        const track::Detection& db = tb[t].detections[d];
        EXPECT_EQ(da.frame, db.frame);
        EXPECT_EQ(da.box.cx, db.box.cx);
        EXPECT_EQ(da.box.cy, db.box.cy);
        EXPECT_EQ(da.box.w, db.box.w);
        EXPECT_EQ(da.box.h, db.box.h);
        EXPECT_EQ(da.confidence, db.confidence);
      }
    }
  }
}

class PipelineTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_enabled_ = telemetry::Enabled();
    previous_timeline_ = telemetry::timeline::CollectionEnabled();
  }
  void TearDown() override {
    telemetry::SetEnabled(previous_enabled_);
    telemetry::timeline::SetCollectionEnabled(previous_timeline_);
    telemetry::timeline::ClearEvents();
    ThreadPool::SetDefaultThreads(1);
  }

  std::vector<sim::Clip> clips_ = MakeClips();
  bool previous_enabled_ = true;
  bool previous_timeline_ = false;
};

TEST_F(PipelineTelemetryTest, OutputsBitForBitIdenticalOnVsOff) {
  // Regression guard: instrumentation must never perturb results — same
  // tracks, same simulated clock, with or without telemetry, through both
  // the plain and the proxy-enabled paths.
  const auto trained = MakeUntrainedProxy();
  const auto fn = CountAccuracyFn(&clips_);
  for (const bool use_proxy : {false, true}) {
    PipelineConfig config;
    config.tracker = TrackerKind::kSort;
    config.use_proxy = use_proxy;
    config.proxy_threshold = 0.3;
    config.sampling_gap = 2;
    const TrainedModels* t = use_proxy ? trained.get() : nullptr;

    telemetry::SetEnabled(false);
    const EvalResult off = EvaluateConfig(config, t, clips_, fn);
    telemetry::SetEnabled(true);
    const EvalResult on = EvaluateConfig(config, t, clips_, fn);
    ExpectIdentical(off, on);
  }
}

TEST_F(PipelineTelemetryTest, OutputsBitForBitIdenticalTimelineOnVsOff) {
  // Same guard for the timeline tracer: ring-buffer event emission across
  // the worker pool must not change a single bit of the outputs.
  const auto trained = MakeUntrainedProxy();
  const auto fn = CountAccuracyFn(&clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  ThreadPool::SetDefaultThreads(3);

  telemetry::timeline::SetCollectionEnabled(false);
  const EvalResult off = EvaluateConfig(config, trained.get(), clips_, fn);
  telemetry::timeline::SetCollectionEnabled(true);
  const EvalResult on = EvaluateConfig(config, trained.get(), clips_, fn);
  telemetry::timeline::SetCollectionEnabled(false);
  EXPECT_FALSE(telemetry::timeline::SnapshotEvents().empty());
  ExpectIdentical(off, on);
}

TEST_F(PipelineTelemetryTest, StageSimSecondsMatchTheRunClock) {
  telemetry::SetEnabled(true);
  telemetry::ResetAll();
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  const Pipeline pipeline(config, nullptr);
  models::SimClock merged;
  for (const sim::Clip& clip : clips_) {
    merged.Merge(pipeline.Run(clip).clock);
  }

  const telemetry::TelemetrySnapshot snapshot = telemetry::CaptureSnapshot();
  for (const models::CostCategory cat :
       {models::CostCategory::kDecode, models::CostCategory::kDetect,
        models::CostCategory::kTrack}) {
    const telemetry::GaugeSample* gauge = telemetry::FindGauge(
        snapshot, std::string("stage/") + models::CostCategoryName(cat) +
                      ".sim_seconds");
    ASSERT_NE(gauge, nullptr) << models::CostCategoryName(cat);
    EXPECT_NEAR(gauge->value, merged.Seconds(cat),
                1e-9 * (1.0 + merged.Seconds(cat)))
        << models::CostCategoryName(cat);
  }
  const telemetry::CounterSample* runs =
      telemetry::FindCounter(snapshot, "pipeline.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->value, static_cast<int64_t>(clips_.size()));
}

/// Expected count of one `stage/*` span over a run.
struct SpanCount {
  const char* name;
  int64_t count;
};

void ExpectSpanCounts(const std::vector<SpanCount>& expected) {
  const telemetry::TelemetrySnapshot snapshot = telemetry::CaptureSnapshot();
  for (const SpanCount& e : expected) {
    const telemetry::SpanSample* span = telemetry::FindSpan(snapshot, e.name);
    ASSERT_NE(span, nullptr) << e.name;
    EXPECT_EQ(span->count, e.count) << e.name;
    EXPECT_GE(span->total_seconds, 0.0) << e.name;
    EXPECT_LE(span->min_seconds, span->max_seconds) << e.name;
  }
}

/// Number of frame groups Run walks for `result`.
int64_t Groups(const PipelineConfig& config, const PipelineResult& result) {
  return (result.frames_processed + config.frame_batch - 1) /
         config.frame_batch;
}

TEST_F(PipelineTelemetryTest, StageSpansCoverEveryStageAndFrame) {
  // A stage span wraps only work the stage does: decode once per clip,
  // detect once per group, track once per group plus once for Finish; no
  // proxy and no refiner, so those spans never record.
  telemetry::SetEnabled(true);
  telemetry::ResetAll();
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 4;
  const Pipeline pipeline(config, nullptr);
  const PipelineResult result = pipeline.Run(clips_[0]);
  const int64_t groups = Groups(config, result);
  ASSERT_GT(groups, 1);
  ExpectSpanCounts({{"stage/decode", 1},
                    {"stage/proxy", 0},
                    {"stage/detect", groups},
                    {"stage/track", groups + 1},
                    {"stage/refine", 0}});
}

TEST_F(PipelineTelemetryTest, StageSpansCountProxyGroupsAndOneRefine) {
  // With the proxy on and a refiner attached, the proxy span records once
  // per group it scores and the refine span once for the clip.
  const auto trained = MakeUntrainedProxy();
  // Any attached refiner makes a fixed-camera clip refine; one without
  // clusters leaves the tracks as they are.
  trained->refiner = std::make_unique<track::TrackRefiner>(
      std::vector<track::TrackCluster>{}, track::TrackRefiner::Options{});
  telemetry::SetEnabled(true);
  telemetry::ResetAll();
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 4;
  config.refine = true;
  const Pipeline pipeline(config, trained.get());
  const PipelineResult result = pipeline.Run(clips_[0]);
  const int64_t groups = Groups(config, result);
  ASSERT_GT(groups, 1);
  ExpectSpanCounts({{"stage/decode", 1},
                    {"stage/proxy", groups},
                    {"stage/detect", groups},
                    {"stage/track", groups + 1},
                    {"stage/refine", 1}});
}

TEST_F(PipelineTelemetryTest, DisabledRunsRecordNoPipelineTelemetry) {
  telemetry::SetEnabled(true);
  telemetry::ResetAll();
  telemetry::SetEnabled(false);
  PipelineConfig config;
  const Pipeline pipeline(config, nullptr);
  pipeline.Run(clips_[0]);
  const telemetry::TelemetrySnapshot snapshot = telemetry::CaptureSnapshot();
  const telemetry::CounterSample* runs =
      telemetry::FindCounter(snapshot, "pipeline.runs");
  if (runs != nullptr) {
    EXPECT_EQ(runs->value, 0);
  }
  const telemetry::SpanSample* span =
      telemetry::FindSpan(snapshot, "stage/detect");
  if (span != nullptr) {
    EXPECT_EQ(span->count, 0);
  }
}

TEST_F(PipelineTelemetryTest, ParallelRunsAggregateExactCounts) {
  // The registry is shared across the pool: counts must be exact and the
  // run must stay deterministic with telemetry on (TSan covers the races).
  telemetry::SetEnabled(true);
  telemetry::ResetAll();
  const auto trained = MakeUntrainedProxy();
  PipelineConfig config;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  const auto fn = CountAccuracyFn(&clips_);
  ThreadPool::SetDefaultThreads(4);
  const ProxyScoreCache& memo = trained->proxy_cache;
  EvaluateConfig(config, trained.get(), clips_, fn, &memo);

  const telemetry::TelemetrySnapshot snapshot = telemetry::CaptureSnapshot();
  const telemetry::CounterSample* runs =
      telemetry::FindCounter(snapshot, "pipeline.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->value, static_cast<int64_t>(clips_.size()));
  const telemetry::CounterSample* hits =
      telemetry::FindCounter(snapshot, "proxy_cache.hits");
  const telemetry::CounterSample* misses =
      telemetry::FindCounter(snapshot, "proxy_cache.misses");
  ASSERT_NE(misses, nullptr);
  // Telemetry mirrors the memo's own counters for this interval.
  const int64_t mirrored_hits = hits != nullptr ? hits->value : 0;
  EXPECT_EQ(mirrored_hits, memo.hits());
  EXPECT_EQ(misses->value, memo.misses());

  // A run without the memo adds no lookups to the mirrors.
  EvaluateConfig(config, trained.get(), clips_, fn);
  const telemetry::TelemetrySnapshot after = telemetry::CaptureSnapshot();
  const telemetry::CounterSample* hits_after =
      telemetry::FindCounter(after, "proxy_cache.hits");
  EXPECT_EQ(hits_after != nullptr ? hits_after->value : 0, mirrored_hits);
  EXPECT_EQ(telemetry::FindCounter(after, "proxy_cache.misses")->value,
            misses->value);
}

TEST_F(PipelineTelemetryTest, PrepareSpansCountEveryPhase) {
  // Set-up is attributed by phase: one span per phase, one train_proxy
  // span per resolution task (they run concurrently on the pool), and
  // nothing at all with telemetry off.
  RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 1;
  scale.clip_seconds = 6;
  scale.proxy_train_steps = 10;
  scale.tracker_train_steps = 20;
  scale.proxy_resolutions = 3;
  Tuner::Options topts;
  topts.max_iterations = 1;
  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
  const struct {
    const char* name;
    int64_t count;
  } phases[] = {
      {"prepare/best_config", 1},   {"prepare/sstar", 1},
      {"prepare/train_proxy", 3},   {"prepare/train_tracker", 1},
      {"prepare/select_windows", 1}, {"prepare/tune", 1},
  };
  ThreadPool::SetDefaultThreads(4);
  for (const bool enabled : {true, false}) {
    telemetry::SetEnabled(true);
    telemetry::ResetAll();
    telemetry::SetEnabled(enabled);
    Otif otif(workload.spec, scale);
    const std::vector<sim::Clip> valid = otif.ValidClips();
    otif.Prepare(workload.MakeAccuracyFn(&valid), topts);
    const telemetry::TelemetrySnapshot snapshot = telemetry::CaptureSnapshot();
    for (const auto& phase : phases) {
      const telemetry::SpanSample* span =
          telemetry::FindSpan(snapshot, phase.name);
      if (!enabled) {
        if (span != nullptr) {
          EXPECT_EQ(span->count, 0) << phase.name;
        }
        continue;
      }
      ASSERT_NE(span, nullptr) << phase.name;
      EXPECT_EQ(span->count, phase.count) << phase.name;
      EXPECT_GT(span->total_seconds, 0.0) << phase.name;
    }
  }
}

}  // namespace
}  // namespace otif::core
