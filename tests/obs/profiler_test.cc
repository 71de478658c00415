// Sampling CPU profiler tests: the pure renderers (collapsed stacks, JSON,
// inclusive top-frames) over hand-built profiles, a live Start/Stop window
// over a known busy loop (symbolization must find the loop; stage and clip
// attribution must join in), option validation, and the bit-identity
// contract — a config evaluation with the profiler sampling must match the
// profiler-off evaluation exactly. Live-sampling tests self-skip under
// sanitizers (the profiler refuses to start there by design).

#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "models/cost_model.h"
#include "sim/dataset.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

// The busy loop the live tests profile. extern "C" + noinline so the frame
// survives optimization with an unmangled name dladdr can resolve through
// the -rdynamic dynamic symbol table.
extern "C" __attribute__((noinline)) double OtifProfilerTestBusyLoop(
    int64_t millis) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(millis);
  double x = 1.0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 4096; ++i) x = x * 1.0000001 + 1e-9;
  }
  // Observable result so the arithmetic cannot be optimized away.
  return x;
}

namespace otif::obs {
namespace {

Profile MakeTwoStackProfile() {
  Profile p;
  p.hz = 97;
  p.duration_seconds = 2.0;
  p.samples = 7;
  p.dropped = 1;
  p.signal_overhead_seconds = 0.001;
  ProfileStack hot;
  hot.stage = "stage/detect";
  hot.clip = 3;
  hot.frames = {"main", "Run", "GemmBias"};
  hot.count = 5;
  ProfileStack cold;
  cold.stage = "";
  cold.clip = -1;
  cold.frames = {"main", "Idle"};
  cold.count = 2;
  p.stacks = {hot, cold};
  return p;
}

TEST(ProfilerRenderTest, CollapsedWithoutContext) {
  const std::string collapsed = ToCollapsed(MakeTwoStackProfile(), false);
  EXPECT_EQ(collapsed, "main;Run;GemmBias 5\nmain;Idle 2\n");
}

TEST(ProfilerRenderTest, CollapsedWithContextPrefixesAttribution) {
  const std::string collapsed = ToCollapsed(MakeTwoStackProfile(), true);
  EXPECT_EQ(collapsed,
            "stage/detect;clip3;main;Run;GemmBias 5\n"
            "(no_stage);(no_clip);main;Idle 2\n");
}

TEST(ProfilerRenderTest, JsonCarriesCountsAndStacks) {
  const std::string json = ProfileToJson(MakeTwoStackProfile());
  EXPECT_NE(json.find("\"hz\": 97"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"signal_overhead_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"stage/detect\""), std::string::npos);
  EXPECT_NE(json.find("\"GemmBias\""), std::string::npos);
  EXPECT_NE(json.find("\"clip\": -1"), std::string::npos);
}

TEST(ProfilerRenderTest, TopFramesAreInclusiveAndDeduplicated) {
  Profile p;
  p.samples = 4;
  // "main" appears twice in one stack (recursion): it must count once per
  // sample, not once per frame.
  ProfileStack recursive;
  recursive.frames = {"main", "main", "Leaf"};
  recursive.count = 3;
  ProfileStack other;
  other.frames = {"main", "Other"};
  other.count = 1;
  p.stacks = {recursive, other};
  const auto top = TopFrames(p, 10);
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(top[0].first, "main");
  EXPECT_EQ(top[0].second, 4);  // Inclusive: on every sample's stack.
  // Truncation honors top_k.
  EXPECT_EQ(TopFrames(p, 1).size(), 1u);
}

TEST(ProfilerTest, RejectsBadOptions) {
  ProfilerOptions options;
  options.hz = 0;
  EXPECT_FALSE(CpuProfiler::Global().Start(options).ok());
  options.hz = 100000;
  EXPECT_FALSE(CpuProfiler::Global().Start(options).ok());
}

TEST(ProfilerTest, StopWithoutStartFails) {
  if (CpuProfiler::Global().running()) GTEST_SKIP() << "window in flight";
  EXPECT_FALSE(CpuProfiler::Global().Stop().ok());
}

/// Starts the profiler or skips the test where it cannot run (sanitizer
/// builds refuse by design).
bool StartOrSkip(const ProfilerOptions& options) {
  const Status status = CpuProfiler::Global().Start(options);
  if (status.ok()) return true;
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  return false;
}

TEST(ProfilerTest, CapturesAndSymbolizesBusyLoop) {
  ProfilerOptions options;
  options.hz = 997;  // Dense sampling keeps the busy window short.
  if (!StartOrSkip(options)) GTEST_SKIP() << "profiler unavailable";
  const double x = OtifProfilerTestBusyLoop(400);
  StatusOr<Profile> profile = CpuProfiler::Global().Stop();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GT(x, 0.0);
  EXPECT_FALSE(CpuProfiler::Global().running());
  EXPECT_EQ(profile->hz, 997);
  EXPECT_GT(profile->duration_seconds, 0.0);
  // ~400ms of CPU at 997 Hz is ~400 samples; dozens even on a loaded CI
  // machine. The busy loop must be on a captured, symbolized stack.
  EXPECT_GE(profile->samples, 20);
  int64_t busy_samples = 0;
  for (const ProfileStack& stack : profile->stacks) {
    for (const std::string& frame : stack.frames) {
      if (frame == "OtifProfilerTestBusyLoop") {
        busy_samples += stack.count;
        break;
      }
    }
  }
  EXPECT_GT(busy_samples, 0) << ToCollapsed(*profile, true);
  // The flat view agrees.
  bool in_top = false;
  for (const auto& [symbol, count] : TopFrames(*profile, 10)) {
    in_top = in_top || symbol == "OtifProfilerTestBusyLoop";
  }
  EXPECT_TRUE(in_top);
  // Self-metrics published.
  const telemetry::TelemetrySnapshot snapshot = telemetry::CaptureSnapshot();
  const telemetry::CounterSample* samples =
      telemetry::FindCounter(snapshot, "obs.profiler.samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GT(samples->value, 0);
}

TEST(ProfilerTest, AttributesStageAndClip) {
  ProfilerOptions options;
  options.hz = 997;
  if (!StartOrSkip(options)) GTEST_SKIP() << "profiler unavailable";
  double x = 0.0;
  {
    telemetry::timeline::ScopedContext ctx({.clip = 7});
    OTIF_SPAN("stage/profiler_unit");
    x = OtifProfilerTestBusyLoop(400);
  }
  StatusOr<Profile> profile = CpuProfiler::Global().Stop();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GT(x, 0.0);
  int64_t attributed = 0;
  for (const ProfileStack& stack : profile->stacks) {
    if (stack.stage == "stage/profiler_unit" && stack.clip == 7) {
      attributed += stack.count;
    }
  }
  EXPECT_GT(attributed, 0) << ToCollapsed(*profile, true);
  // The collapsed form carries the attribution join as a prefix.
  EXPECT_NE(ToCollapsed(*profile, true).find("stage/profiler_unit;clip7;"),
            std::string::npos);
}

TEST(ProfilerTest, SecondStartWhileRunningFails) {
  if (!StartOrSkip({})) GTEST_SKIP() << "profiler unavailable";
  EXPECT_TRUE(CpuProfiler::Global().running());
  EXPECT_FALSE(CpuProfiler::Global().Start().ok());
  StatusOr<Profile> profile = CpuProfiler::Global().Stop();
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
}

TEST(ProfilerTest, ProfileForRunsOneBoundedWindow) {
  const StatusOr<Profile> profile =
      CpuProfiler::Global().ProfileFor(0.05);
  if (!profile.ok()) {
    EXPECT_EQ(profile.status().code(), StatusCode::kFailedPrecondition);
    GTEST_SKIP() << "profiler unavailable";
  }
  EXPECT_GE(profile->duration_seconds, 0.05);
  EXPECT_FALSE(CpuProfiler::Global().running());
}

/// Exact equality over every observable of a config evaluation.
void ExpectSameResult(const core::EvalResult& a, const core::EvalResult& b) {
  for (int c = 0; c < models::kNumCostCategories; ++c) {
    const auto cat = static_cast<models::CostCategory>(c);
    EXPECT_EQ(a.clock.Seconds(cat), b.clock.Seconds(cat)) << "category " << c;
  }
  ASSERT_EQ(a.tracks_per_clip.size(), b.tracks_per_clip.size());
  for (size_t clip = 0; clip < a.tracks_per_clip.size(); ++clip) {
    const std::vector<track::Track>& ta = a.tracks_per_clip[clip];
    const std::vector<track::Track>& tb = b.tracks_per_clip[clip];
    ASSERT_EQ(ta.size(), tb.size()) << "clip " << clip;
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

// The bit-identity acceptance gate: sampling must never feed back into
// pipeline state. SA_RESTART keeps interrupted syscalls transparent and the
// handler only reads thread-locals and writes its own ring, so a 4-worker
// evaluation under full-rate sampling must equal the unprofiled one bit for
// bit.
TEST(ProfilerTest, RunsAreBitIdenticalWithProfilerOnOrOff) {
  std::vector<sim::Clip> clips;
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (int c = 0; c < 2; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 1, c), 60));
  }
  core::PipelineConfig config;
  config.tracker = core::TrackerKind::kSort;
  config.frame_batch = 4;
  const core::AccuracyFn no_accuracy =
      [](const std::vector<std::vector<track::Track>>&) { return 0.0; };
  ThreadPool::SetDefaultThreads(4);

  // Reference: profiler off.
  const core::EvalResult off =
      core::EvaluateConfig(config, nullptr, clips, no_accuracy);

  // Same run sampled at full rate.
  ProfilerOptions options;
  options.hz = 997;
  const bool profiling = StartOrSkip(options);
  const core::EvalResult on =
      core::EvaluateConfig(config, nullptr, clips, no_accuracy);
  if (profiling) {
    StatusOr<Profile> profile = CpuProfiler::Global().Stop();
    EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  }
  ExpectSameResult(off, on);
  ThreadPool::SetDefaultThreads(1);
  if (!profiling) GTEST_SKIP() << "compared without sampling (sanitizer)";
}

}  // namespace
}  // namespace otif::obs
