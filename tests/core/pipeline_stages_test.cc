// Determinism tests for the pipeline executor: parallel execution over the
// worker pool must reproduce the single-threaded results bit-for-bit
// (tracks and simulated clock charges) — including under injected faults,
// where Pipeline::Run retries, degrades or quarantines clips and every
// unaffected clip stays bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "core/proxy_cache.h"
#include "models/detector.h"
#include "query/queries.h"
#include "sim/dataset.h"
#include "sim/raster.h"
#include "track/metrics.h"
#include "track/refine.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace otif::core {
namespace {

std::vector<sim::Clip> MakeClips(int n = 3, int frames = 120) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < n; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 1, c), frames));
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

/// Trained artifacts for the matrix: one lightly trained proxy (enough to
/// produce non-trivial cell scores), a freshly seeded (deterministic)
/// recurrent tracker net, and a hand-picked window set. No refiner (see
/// AttachRefiner).
std::unique_ptr<TrainedModels> MakeTrained(
    const std::vector<sim::Clip>& clips) {
  auto trained = std::make_unique<TrainedModels>();
  const auto resolutions = models::StandardProxyResolutions();
  auto proxy = std::make_unique<models::ProxyModel>(resolutions[0], 1234);

  models::SimulatedDetector detector(models::ArchByName(
      models::StandardDetectorArchs(), "yolov3"));
  sim::Rasterizer raster(&clips[0]);
  int next_frame = 0;
  auto sampler = [&]() {
    const int f = next_frame;
    next_frame = (next_frame + 7) % clips[0].num_frames();
    models::ProxySample s;
    s.frame = raster.Render(f, proxy->resolution().raster_w(),
                            proxy->resolution().raster_h());
    s.labels = proxy->MakeLabels(
        models::FilterByConfidence(detector.Detect(clips[0], f, 1.0), 0.4),
        clips[0].spec().width, clips[0].spec().height);
    return s;
  };
  models::TrainProxyModel(proxy.get(), sampler, 24);
  trained->proxies.push_back(std::move(proxy));
  trained->tracker_net = std::make_unique<models::TrackerNet>(99);
  trained->window_sizes = {WindowSize{64, 64}, WindowSize{128, 96},
                           WindowSize{224, 160}};
  return trained;
}

/// Builds a refiner the way Otif::Prepare does (clusters from a track set,
/// spatial parameters scaled to the clip resolution), using SORT tracks as
/// the stand-in for S*.
void AttachRefiner(TrainedModels* trained,
                   const std::vector<sim::Clip>& clips) {
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  Pipeline pipeline(config, nullptr);
  std::vector<track::Track> all;
  for (const sim::Clip& clip : clips) {
    PipelineResult r = pipeline.Run(clip);
    all.insert(all.end(), r.tracks.begin(), r.tracks.end());
  }
  const double dim = std::max(clips[0].spec().width, clips[0].spec().height);
  track::DbscanOptions dbscan;
  dbscan.epsilon = 0.04 * dim;
  track::TrackRefiner::Options opts;
  opts.max_cluster_distance = 0.12 * dim;
  opts.index_cell_px = 0.05 * dim;
  trained->refiner = std::make_unique<track::TrackRefiner>(
      track::ClusterTracks(all, dbscan), opts);
}

/// Exact equality of one clip's tracks.
void ExpectSameTracks(const std::vector<track::Track>& ta,
                      const std::vector<track::Track>& tb, size_t clip) {
  ASSERT_EQ(ta.size(), tb.size()) << "clip " << clip;
  for (size_t t = 0; t < ta.size(); ++t) {
    EXPECT_EQ(ta[t].id, tb[t].id);
    EXPECT_EQ(ta[t].cls, tb[t].cls);
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

/// Exact equality of every category of two simulated clocks.
void ExpectSameClock(const models::SimClock& a, const models::SimClock& b) {
  for (const models::CostCategory cat :
       {models::CostCategory::kDecode, models::CostCategory::kProxy,
        models::CostCategory::kDetect, models::CostCategory::kTrack,
        models::CostCategory::kRefine}) {
    EXPECT_EQ(a.Seconds(cat), b.Seconds(cat))
        << "category " << static_cast<int>(cat);
  }
}

void ExpectIdentical(const EvalResult& a, const EvalResult& b) {
  // Exact floating-point equality: the parallel schedule must not change a
  // single bit of the accounting.
  ExpectSameClock(a.clock, b.clock);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.accuracy, b.accuracy);
  ASSERT_EQ(a.tracks_per_clip.size(), b.tracks_per_clip.size());
  for (size_t c = 0; c < a.tracks_per_clip.size(); ++c) {
    ExpectSameTracks(a.tracks_per_clip[c], b.tracks_per_clip[c], c);
  }
}

class PipelineStagesDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetDefaultThreads(1); }

  /// Evaluates `config` serially and with a 4-lane pool; both must agree
  /// bit-for-bit. The proxy cache is cleared before each run so the
  /// parallel pass exercises concurrent compute+insert, not just hits.
  void CheckConfig(const PipelineConfig& config,
                   const TrainedModels* trained) {
    const auto fn = CountAccuracyFn(&clips_);
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    const EvalResult serial = EvaluateConfig(config, trained, clips_, fn);
    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    const EvalResult parallel = EvaluateConfig(config, trained, clips_, fn);
    ExpectIdentical(serial, parallel);
  }

  std::vector<sim::Clip> clips_ = MakeClips();
};

TEST_F(PipelineStagesDeterminismTest, SortNoProxy) {
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = false;
  CheckConfig(config, nullptr);
}

TEST_F(PipelineStagesDeterminismTest, SortWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(PipelineStagesDeterminismTest, RecurrentNoProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.use_proxy = false;
  config.sampling_gap = 4;
  CheckConfig(config, trained.get());
}

TEST_F(PipelineStagesDeterminismTest, RecurrentWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(PipelineStagesDeterminismTest, RefineEnabled) {
  const auto trained = MakeTrained(clips_);
  AttachRefiner(trained.get(), clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  config.refine = true;
  CheckConfig(config, trained.get());
}

TEST_F(PipelineStagesDeterminismTest, ProxySkipsDetectorFrames) {
  // A high threshold makes the proxy reject most frames, so detect groups
  // carry ragged (often zero) window counts.
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.use_proxy = true;
  config.proxy_threshold = 0.9;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(PipelineStagesDeterminismTest, RaggedSamplingGap) {
  // Gap 7 does not divide 120: the last group of every clip is partial.
  PipelineConfig config;
  config.sampling_gap = 7;
  config.frame_batch = 4;
  CheckConfig(config, nullptr);
}

TEST_F(PipelineStagesDeterminismTest, FrameBatchExceedsSampledFrames) {
  // ceil(120 / 32) = 4 sampled frames, far below the frame batch: each clip
  // is a single partial group.
  PipelineConfig config;
  config.sampling_gap = 32;
  config.frame_batch = 64;
  CheckConfig(config, nullptr);
}

TEST_F(PipelineStagesDeterminismTest, ScaledDetector) {
  PipelineConfig config;
  config.detector_scale = 0.59;
  config.sampling_gap = 2;
  CheckConfig(config, nullptr);
}

TEST_F(PipelineStagesDeterminismTest, ProxyCacheCountsHitsAcrossRuns) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  const auto fn = CountAccuracyFn(&clips_);
  trained->proxy_cache.Clear();
  EvaluateConfig(config, trained.get(), clips_, fn);
  const int64_t misses_first = trained->proxy_cache.misses();
  EXPECT_GT(misses_first, 0);
  EXPECT_GT(trained->proxy_cache.size(), 0u);
  const int64_t hits_before = trained->proxy_cache.hits();
  EvaluateConfig(config, trained.get(), clips_, fn);
  // Second evaluation re-scores the same frames: all lookups hit.
  EXPECT_EQ(trained->proxy_cache.misses(), misses_first);
  EXPECT_GE(trained->proxy_cache.hits() - hits_before, misses_first);
}

/// The clip-set executor (EvaluateConfig at a 4-lane pool) against
/// standalone single-thread Pipeline::Run calls, one per clip: per-clip
/// tracks and the clock merged in clip order must agree bit-for-bit. The
/// suite keeps the name it had when a separate streaming executor ran clip
/// sets; EvaluateConfig replaced it and inherits the same contract.
class StreamingExecutorEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetDefaultThreads(1); }

  void CheckConfig(const PipelineConfig& config,
                   const TrainedModels* trained) {
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    Pipeline pipeline(config, trained);
    std::vector<PipelineResult> serial;
    models::SimClock serial_clock;
    for (const sim::Clip& clip : clips_) {
      serial.push_back(pipeline.Run(clip));
      ASSERT_TRUE(serial.back().status.ok());
      serial_clock.Merge(serial.back().clock);
    }

    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    const EvalResult pooled =
        EvaluateConfig(config, trained, clips_, CountAccuracyFn(&clips_));
    EXPECT_TRUE(pooled.failed_clips.empty());
    EXPECT_TRUE(pooled.degraded_clips.empty());
    ExpectSameClock(serial_clock, pooled.clock);
    EXPECT_EQ(serial_clock.TotalSeconds(), pooled.seconds);
    ASSERT_EQ(pooled.tracks_per_clip.size(), clips_.size());
    for (size_t c = 0; c < clips_.size(); ++c) {
      ExpectSameTracks(serial[c].tracks, pooled.tracks_per_clip[c], c);
    }
  }

  std::vector<sim::Clip> clips_ = MakeClips();
};

TEST_F(StreamingExecutorEquivalenceTest, SortNoProxy) {
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.frame_batch = 4;
  CheckConfig(config, nullptr);
}

TEST_F(StreamingExecutorEquivalenceTest, SortWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest, RecurrentNoProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.sampling_gap = 4;
  CheckConfig(config, trained.get());
}

TEST_F(StreamingExecutorEquivalenceTest, RecurrentWithProxy) {
  const auto trained = MakeTrained(clips_);
  PipelineConfig config;
  config.tracker = TrackerKind::kRecurrent;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  config.sampling_gap = 2;
  CheckConfig(config, trained.get());
}

/// Fault recovery in Pipeline::Run, driven through EvaluateConfig at 4
/// workers with OTIF_FAULTS-style specs installed: transient errors retry,
/// a clip whose detector keeps failing is quarantined while the rest of the
/// run completes bit-identically, and a proxy that keeps failing falls back
/// to full-frame detection.
class PipelineFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::ClearFaults();
    ThreadPool::SetDefaultThreads(1);
  }

  /// Fault-free single-thread reference evaluation.
  EvalResult RunReference(const PipelineConfig& config,
                          const TrainedModels* trained,
                          const std::vector<sim::Clip>& clips) {
    ThreadPool::SetDefaultThreads(1);
    if (trained != nullptr) trained->proxy_cache.Clear();
    return EvaluateConfig(config, trained, clips, CountAccuracyFn(&clips));
  }

  /// Evaluation at a 4-lane pool under whatever faults are armed.
  EvalResult RunFaulted(const PipelineConfig& config,
                        const TrainedModels* trained) {
    ThreadPool::SetDefaultThreads(4);
    if (trained != nullptr) trained->proxy_cache.Clear();
    return EvaluateConfig(config, trained, clips_, CountAccuracyFn(&clips_));
  }

  static int64_t CounterValue(const std::string& name) {
    return telemetry::MetricsRegistry::Global().GetCounter(name)->value();
  }

  std::vector<sim::Clip> clips_ = MakeClips();
};

TEST_F(PipelineFaultTest, QuarantineReportsFailedClipCompletesRest) {
  // Clip 1's detector invocations always fail: the run must exhaust the
  // retry budget, quarantine clip 1, and still deliver clips 0 and 2
  // bit-identical to a fault-free evaluation.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const EvalResult reference = RunReference(config, nullptr, clips_);
  const std::vector<sim::Clip> survivors = {clips_[0], clips_[2]};
  const EvalResult survivors_only = RunReference(config, nullptr, survivors);

  ASSERT_TRUE(fault::ConfigureFaults("detect.invoke:error:1:7:clip=1").ok());
  const int64_t quarantined_before = CounterValue("executor.quarantined_clips");
  const EvalResult r = RunFaulted(config, nullptr);

  ASSERT_EQ(r.failed_clips.size(), 1u);
  EXPECT_EQ(r.failed_clips[0].clip_index, 1);
  EXPECT_EQ(r.failed_clips[0].status.code(), StatusCode::kIoError);
  EXPECT_GT(r.failed_clips[0].retries, 0);
  EXPECT_EQ(CounterValue("executor.quarantined_clips"),
            quarantined_before + 1);
  EXPECT_TRUE(r.degraded_clips.empty());

  // The quarantined slot stays positional but empty and charges nothing.
  ASSERT_EQ(r.tracks_per_clip.size(), clips_.size());
  EXPECT_TRUE(r.tracks_per_clip[1].empty());
  ExpectSameTracks(reference.tracks_per_clip[0], r.tracks_per_clip[0], 0);
  ExpectSameTracks(reference.tracks_per_clip[2], r.tracks_per_clip[2], 2);
  ExpectSameClock(survivors_only.clock, r.clock);
}

TEST_F(PipelineFaultTest, TransientErrorsRetryToBitIdenticalRun) {
  // A moderate error rate makes many invocations fail once or twice, but
  // the per-attempt token reroll means no group exhausts all attempts
  // (deterministic for a fixed seed). The run must succeed with results
  // bit-identical to the fault-free reference.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const EvalResult reference = RunReference(config, nullptr, clips_);

  ASSERT_TRUE(fault::ConfigureFaults("detect.invoke:error:0.3:11").ok());
  const int64_t retries_before = CounterValue("executor.retries");
  const EvalResult r = RunFaulted(config, nullptr);
  EXPECT_TRUE(r.failed_clips.empty());
  EXPECT_GT(CounterValue("executor.retries"), retries_before);
  ExpectIdentical(reference, r);
}

TEST_F(PipelineFaultTest, StallAndDenyFaultsDoNotChangeResults) {
  // Latency spikes before model invocations and allocation denials in the
  // buffer pool perturb scheduling and memory reuse but must never change
  // a single output bit.
  PipelineConfig config;
  config.tracker = TrackerKind::kSort;
  config.sampling_gap = 2;
  const EvalResult reference = RunReference(config, nullptr, clips_);

  ASSERT_TRUE(fault::ConfigureFaults(
                  "detect.invoke:stall:0.2:3:ms=1,"
                  "mem.acquire:deny:0.5:9")
                  .ok());
  const EvalResult r = RunFaulted(config, nullptr);
  EXPECT_TRUE(r.failed_clips.empty());
  ExpectIdentical(reference, r);
}

TEST_F(PipelineFaultTest, DegradedProxyFallsBackToFullFrame) {
  // The proxy fails permanently for every clip: instead of quarantining,
  // the run degrades to full-frame detection — exactly what a run without
  // the proxy produces.
  const auto trained = MakeTrained(clips_);
  PipelineConfig noproxy;
  noproxy.tracker = TrackerKind::kSort;
  noproxy.sampling_gap = 2;
  const EvalResult reference = RunReference(noproxy, trained.get(), clips_);

  PipelineConfig config = noproxy;
  config.use_proxy = true;
  config.proxy_threshold = 0.3;
  ASSERT_TRUE(fault::ConfigureFaults("proxy.invoke:error:1:7").ok());
  const int64_t degraded_before = CounterValue("executor.degraded_clips");
  const EvalResult r = RunFaulted(config, trained.get());
  EXPECT_TRUE(r.failed_clips.empty());
  EXPECT_EQ(r.degraded_clips, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(CounterValue("executor.degraded_clips"),
            degraded_before + static_cast<int64_t>(clips_.size()));
  ExpectIdentical(reference, r);
}

/// The cache protocol Pipeline::Run and the tuner follow: look up; on a
/// miss "score" (a one-element tensor holding `value`), count it in
/// `computes`, and insert. Returns the entry the cache holds for `key`.
nn::Tensor Fetch(const ProxyScoreCache& cache, const ProxyScoreCache::Key& key,
                 float value, int* computes = nullptr) {
  nn::Tensor scores;
  if (cache.Lookup(key, &scores)) return scores;
  if (computes != nullptr) ++*computes;
  nn::Tensor fresh({1});
  fresh[0] = value;
  return cache.Insert(key, std::move(fresh));
}

TEST(ProxyScoreCacheTest, EvictsFifoAtCapacity) {
  ProxyScoreCache cache(/*capacity=*/2);
  int computes = 0;
  EXPECT_EQ(Fetch(cache, {1, 0, 0}, 1.0f, &computes)[0], 1.0f);
  EXPECT_EQ(Fetch(cache, {2, 0, 0}, 2.0f, &computes)[0], 2.0f);
  EXPECT_EQ(Fetch(cache, {3, 0, 0}, 3.0f, &computes)[0], 3.0f);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(computes, 3);
  // Key 1 was evicted (FIFO) and recomputes; key 3 is still resident.
  EXPECT_EQ(Fetch(cache, {1, 0, 0}, 1.5f, &computes)[0], 1.5f);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(Fetch(cache, {3, 0, 0}, 9.0f, &computes)[0], 3.0f);
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(ProxyScoreCacheTest, CountsEvictionsAndResetsCounters) {
  ProxyScoreCache cache(/*capacity=*/2);
  Fetch(cache, {1, 0, 0}, 1.0f);
  Fetch(cache, {2, 0, 0}, 2.0f);
  Fetch(cache, {3, 0, 0}, 3.0f);  // Evicts key 1.
  Fetch(cache, {4, 0, 0}, 4.0f);  // Evicts key 2.
  Fetch(cache, {4, 0, 0}, 9.0f);  // Hit.
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 4);

  // Clear drops entries but keeps counters (documented contract).
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.evictions(), 2);
}

TEST(ProxyScoreCacheTest, ConcurrentLookupInsertIsConsistent) {
  ProxyScoreCache cache;
  ThreadPool pool(4);
  std::vector<float> got(256, -1.0f);
  std::vector<float> writer(256, -1.0f);
  pool.ParallelFor(256, [&](int64_t i) {
    const int key = static_cast<int>(i % 16);
    nn::Tensor t;
    if (!cache.Lookup({7, key, 0}, &t)) {
      // Every miss scores the same value but tags it with its own index:
      // Insert must hand back the first writer's entry, not its own.
      nn::Tensor v({2});
      v[0] = static_cast<float>(key);
      v[1] = static_cast<float>(i);
      t = cache.Insert({7, key, 0}, std::move(v));
    }
    got[static_cast<size_t>(i)] = t[0];
    writer[static_cast<size_t>(i)] = t[1];
  });
  for (int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], static_cast<float>(i % 16));
    // First write wins: every reader of a key sees one writer's entry.
    EXPECT_EQ(writer[static_cast<size_t>(i)],
              writer[static_cast<size_t>(i % 16)]);
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.hits() + cache.misses(), 256);
}

}  // namespace
}  // namespace otif::core
