// RunProgress semantics, and the runs EvaluateConfig reports through it.
// RunProgress::Global() is a process-wide singleton, so every test begins
// its own runs and restores the enabled flag + phase on exit — tests stay
// order-independent by asserting on the runs they began, never on absolute
// state.

#include "obs/run_progress.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "sim/dataset.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/trace_timeline.h"

namespace otif::obs {
namespace {

/// Arms progress recording for a test body and restores the previous state
/// (and a clean "idle" phase) on exit.
class ScopedProgress {
 public:
  ScopedProgress() : previous_(ProgressEnabled()) { SetProgressEnabled(true); }
  ~ScopedProgress() {
    RunProgress::Global().SetPhase("idle");
    SetProgressEnabled(previous_);
  }

 private:
  const bool previous_;
};

/// Installs a fault spec for a test body and disarms every site on exit.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) {
    OTIF_CHECK_OK(fault::ConfigureFaults(spec));
  }
  ~ScopedFaults() { fault::ClearFaults(); }
};

std::vector<sim::Clip> MakeClips(int count) {
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  std::vector<sim::Clip> clips;
  for (int c = 0; c < count; ++c) {
    clips.push_back(sim::SimulateClip(spec, sim::ClipSeed(spec, 1, c), 61));
  }
  return clips;
}

/// The cheapest config that needs no trained models.
core::PipelineConfig SortConfig(int sampling_gap) {
  core::PipelineConfig config;
  config.tracker = core::TrackerKind::kSort;
  config.sampling_gap = sampling_gap;
  config.frame_batch = 4;
  return config;
}

core::EvalResult Evaluate(const core::PipelineConfig& config,
                          const std::vector<sim::Clip>& clips) {
  return core::EvaluateConfig(
      config, nullptr, clips,
      [](const std::vector<std::vector<track::Track>>&) { return 0.0; });
}

/// Frames Pipeline::Run samples from `clip` at `gap`.
int64_t SampledFrames(const sim::Clip& clip, int gap) {
  return (clip.num_frames() + gap - 1) / gap;
}

TEST(RunProgressTest, TracksPerClipCommits) {
  ScopedProgress scoped;
  RunProgress& progress = RunProgress::Global();
  const std::shared_ptr<RunProgress::Run> run =
      progress.BeginRun("unit", {10, 20});
  ASSERT_NE(run, nullptr);
  run->CommitFrames(0, 4);
  run->CommitFrames(1, 20);

  ProgressSnapshot snap = progress.Snapshot();
  EXPECT_EQ(snap.run_label, "unit");
  EXPECT_TRUE(snap.run_in_flight);
  EXPECT_EQ(snap.frames_total, 30);
  EXPECT_EQ(snap.frames_committed, 24);
  ASSERT_EQ(snap.clips.size(), 2u);
  EXPECT_EQ(snap.clips[0].clip, 0);
  EXPECT_EQ(snap.clips[0].committed, 4);
  EXPECT_EQ(snap.clips[0].total, 10);
  EXPECT_EQ(snap.clips[1].committed, 20);
  EXPECT_EQ(snap.clips_done, 1);  // Clip 1 reached its total.
  EXPECT_GE(snap.run_uptime_seconds, 0.0);
  // Separate clock reads microseconds apart: only sign is guaranteed when
  // the run began right at process start (as in this test binary).
  EXPECT_GE(snap.process_uptime_seconds, 0.0);

  run->End();
  EXPECT_FALSE(progress.Snapshot().run_in_flight);
}

TEST(RunProgressTest, SeqAdvancesPerRun) {
  ScopedProgress scoped;
  RunProgress& progress = RunProgress::Global();
  const std::shared_ptr<RunProgress::Run> first = progress.BeginRun("first", {});
  const int64_t seq = progress.Snapshot().run_seq;
  first->End();
  const std::shared_ptr<RunProgress::Run> second =
      progress.BeginRun("second", {});
  EXPECT_EQ(progress.Snapshot().run_seq, seq + 1);
  EXPECT_EQ(progress.Snapshot().run_label, "second");
  second->End();
}

TEST(RunProgressTest, PhaseOverridesSurviveInnerRuns) {
  ScopedProgress scoped;
  RunProgress& progress = RunProgress::Global();
  // The phase is only what the harness sets: runs beginning and ending do
  // not flip it (run.in_flight says whether the shown run is running).
  progress.SetPhase("idle");
  std::shared_ptr<RunProgress::Run> run = progress.BeginRun("no_flip", {});
  EXPECT_EQ(progress.Snapshot().phase, "idle");
  run->End();
  EXPECT_EQ(progress.Snapshot().phase, "idle");

  // A harness override ("prepare") spans many inner executor runs and must
  // not be clobbered by their BeginRun/End.
  progress.SetPhase("prepare");
  run = progress.BeginRun("inner", {});
  EXPECT_EQ(progress.Snapshot().phase, "prepare");
  run->End();
  EXPECT_EQ(progress.Snapshot().phase, "prepare");
}

TEST(RunProgressTest, DisabledMethodsAreNoOps) {
  const bool previous = ProgressEnabled();
  SetProgressEnabled(false);
  RunProgress& progress = RunProgress::Global();
  const ProgressSnapshot before = progress.Snapshot();
  EXPECT_EQ(progress.BeginRun("should_not_register", {100}), nullptr);
  progress.SetPhase("should_not_register");
  const ProgressSnapshot after = progress.Snapshot();
  EXPECT_EQ(after.run_seq, before.run_seq);
  EXPECT_EQ(after.run_label, before.run_label);
  EXPECT_EQ(after.frames_committed, before.frames_committed);
  EXPECT_EQ(after.phase, before.phase);
  SetProgressEnabled(previous);
}

TEST(RunProgressTest, ConcurrentCommitsLoseNothing) {
  ScopedProgress scoped;
  RunProgress& progress = RunProgress::Global();
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 1000;
  const std::shared_ptr<RunProgress::Run> run =
      progress.BeginRun("concurrent", std::vector<int64_t>(kThreads, 1000));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) run->CommitFrames(t, 1);
    });
  }
  for (std::thread& t : threads) t.join();
  ProgressSnapshot snap = progress.Snapshot();
  EXPECT_EQ(snap.frames_committed, kThreads * kCommitsPerThread);
  for (const ClipProgressSample& clip : snap.clips) {
    EXPECT_EQ(clip.committed, kCommitsPerThread);
  }
  EXPECT_EQ(snap.clips_done, kThreads);
  run->End();
}

TEST(RunProgressTest, QuarantinedClipsSurfaceInSnapshot) {
  ScopedProgress scoped;
  RunProgress& progress = RunProgress::Global();
  const std::shared_ptr<RunProgress::Run> run =
      progress.BeginRun("quarantine", {10, 10, 10});
  EXPECT_TRUE(progress.Snapshot().quarantined.empty());

  run->MarkQuarantined(1, "IoError: injected fault");
  run->MarkQuarantined(2, "IoError: another fault");
  ProgressSnapshot snap = progress.Snapshot();
  ASSERT_EQ(snap.quarantined.size(), 2u);
  EXPECT_EQ(snap.quarantined[0].clip, 1);
  EXPECT_EQ(snap.quarantined[0].reason, "IoError: injected fault");
  EXPECT_EQ(snap.quarantined[1].clip, 2);
  run->End();

  // A new run starts with a clean quarantine list.
  const std::shared_ptr<RunProgress::Run> next =
      progress.BeginRun("next", {10});
  EXPECT_TRUE(progress.Snapshot().quarantined.empty());
  next->End();
}

TEST(RunProgressTest, QuarantineIsNoOpWhenDisabledOrNoRun) {
  // A quarantine is recorded only by the EvaluateConfig call that hit it:
  // neither Pipeline::Run outside any run nor an evaluation while progress
  // is off touches the latest run.
  ScopedProgress scoped;
  ScopedFaults faults("detect.invoke:error:1:7");
  const std::vector<sim::Clip> clips = MakeClips(1);
  const std::shared_ptr<RunProgress::Run> run =
      RunProgress::Global().BeginRun("gate", {10});
  EXPECT_FALSE(
      core::Pipeline(SortConfig(1), nullptr).Run(clips[0]).status.ok());
  SetProgressEnabled(false);
  EXPECT_EQ(Evaluate(SortConfig(1), clips).failed_clips.size(), 1u);
  SetProgressEnabled(true);
  const ProgressSnapshot snap = RunProgress::Global().Snapshot();
  EXPECT_EQ(snap.run_label, "gate");
  EXPECT_TRUE(snap.quarantined.empty());
  run->End();
}

TEST(RunProgressTest, OverlappingRunsKeepSeparateCounts) {
  ScopedProgress scoped;
  RunProgress& progress = RunProgress::Global();
  const std::shared_ptr<RunProgress::Run> older =
      progress.BeginRun("older", {10, 10});
  const std::shared_ptr<RunProgress::Run> newer =
      progress.BeginRun("newer", {4});
  older->CommitFrames(0, 10);
  older->CommitFrames(1, 3);
  newer->CommitFrames(0, 2);

  ProgressSnapshot snap = progress.Snapshot();
  EXPECT_EQ(snap.run_label, "newer");
  EXPECT_EQ(snap.frames_total, 4);
  EXPECT_EQ(snap.frames_committed, 2);
  ASSERT_EQ(snap.clips.size(), 1u);
  EXPECT_EQ(snap.clips[0].committed, 2);

  // Ending the older run leaves the newer one in flight and unchanged.
  older->End();
  snap = progress.Snapshot();
  EXPECT_EQ(snap.run_label, "newer");
  EXPECT_TRUE(snap.run_in_flight);
  EXPECT_EQ(snap.frames_committed, 2);
  EXPECT_EQ(snap.clips_done, 0);
  newer->End();
  EXPECT_FALSE(progress.Snapshot().run_in_flight);
}

TEST(RunProgressTest, PipelineRunOutsideEvaluateConfigCommitsNothing) {
  // Prepare's S* pass runs clips through Pipeline::Run directly, under a
  // clip context but outside any run: its frames belong to no run.
  ScopedProgress scoped;
  const std::vector<sim::Clip> clips = MakeClips(1);
  const std::shared_ptr<RunProgress::Run> run =
      RunProgress::Global().BeginRun("latest", {5});
  run->CommitFrames(0, 2);
  const int64_t seq = RunProgress::Global().Snapshot().run_seq;
  {
    telemetry::timeline::ScopedContext ctx({.clip = 0});
    const core::PipelineResult r =
        core::Pipeline(SortConfig(1), nullptr).Run(clips[0]);
    ASSERT_GT(r.frames_processed, 0);
  }
  const ProgressSnapshot snap = RunProgress::Global().Snapshot();
  EXPECT_EQ(snap.run_seq, seq);
  EXPECT_EQ(snap.frames_committed, 2);
  ASSERT_EQ(snap.clips.size(), 1u);
  EXPECT_EQ(snap.clips[0].committed, 2);
  run->End();
}

TEST(RunProgressTest, EvaluateConfigReportsItsOwnRun) {
  ScopedProgress scoped;
  const std::vector<sim::Clip> clips = MakeClips(3);
  const core::PipelineConfig config = SortConfig(3);
  Evaluate(config, clips);

  const ProgressSnapshot snap = RunProgress::Global().Snapshot();
  EXPECT_EQ(snap.run_label, config.ToString());
  EXPECT_FALSE(snap.run_in_flight);
  ASSERT_EQ(snap.clips.size(), clips.size());
  for (size_t i = 0; i < clips.size(); ++i) {
    EXPECT_EQ(snap.clips[i].committed, SampledFrames(clips[i], 3)) << i;
    EXPECT_EQ(snap.clips[i].total, SampledFrames(clips[i], 3)) << i;
  }
  EXPECT_EQ(snap.clips_done, static_cast<int>(clips.size()));
  EXPECT_TRUE(snap.quarantined.empty());
}

TEST(RunProgressTest, EvaluateConfigListsQuarantinedClips) {
  ScopedProgress scoped;
  ScopedFaults faults("detect.invoke:error:1:7:clip=1");
  const std::vector<sim::Clip> clips = MakeClips(3);
  const core::EvalResult r = Evaluate(SortConfig(2), clips);
  ASSERT_EQ(r.failed_clips.size(), 1u);

  const ProgressSnapshot snap = RunProgress::Global().Snapshot();
  ASSERT_EQ(snap.quarantined.size(), 1u);
  EXPECT_EQ(snap.quarantined[0].clip, 1);
  EXPECT_EQ(snap.quarantined[0].reason, r.failed_clips[0].status.ToString());
  ASSERT_EQ(snap.clips.size(), clips.size());
  EXPECT_EQ(snap.clips[1].committed, 0);
  EXPECT_EQ(snap.clips[0].committed, SampledFrames(clips[0], 2));
  EXPECT_EQ(snap.clips_done, 2);
}

TEST(RunProgressTest, ConcurrentEvaluationsKeepTheirOwnTotals) {
  // The tuner evaluates candidates concurrently: each call's commits go to
  // its own run, so the run shown last holds its own totals, never the sum.
  ScopedProgress scoped;
  const std::vector<sim::Clip> clips = MakeClips(3);
  const core::PipelineConfig every_frame = SortConfig(1);
  const core::PipelineConfig every_other = SortConfig(2);
  std::thread a([&] { Evaluate(every_frame, clips); });
  std::thread b([&] { Evaluate(every_other, clips); });
  a.join();
  b.join();

  const ProgressSnapshot snap = RunProgress::Global().Snapshot();
  ASSERT_TRUE(snap.run_label == every_frame.ToString() ||
              snap.run_label == every_other.ToString())
      << snap.run_label;
  const int gap = snap.run_label == every_frame.ToString() ? 1 : 2;
  EXPECT_FALSE(snap.run_in_flight);
  ASSERT_EQ(snap.clips.size(), clips.size());
  for (size_t i = 0; i < clips.size(); ++i) {
    EXPECT_EQ(snap.clips[i].committed, SampledFrames(clips[i], gap)) << i;
    EXPECT_EQ(snap.clips[i].total, SampledFrames(clips[i], gap)) << i;
  }
  EXPECT_EQ(snap.frames_committed, snap.frames_total);
}

}  // namespace
}  // namespace otif::obs
