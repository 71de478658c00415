#ifndef OTIF_OBS_RUN_PROGRESS_H_
#define OTIF_OBS_RUN_PROGRESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/telemetry.h"

namespace otif::obs {

/// Whether live run-progress recording is armed. One bit of the shared
/// telemetry flag word (telemetry::kProgressFlag), so an instrumentation
/// site in the commit path pays a single relaxed atomic load to find out —
/// the same "everything off" cost contract the spans follow. Armed by
/// InitIntrospectionFromEnv when OTIF_METRICS_PORT is set, or explicitly by
/// tests.
inline bool ProgressEnabled() {
  return (telemetry::Flags() & telemetry::kProgressFlag) != 0;
}
void SetProgressEnabled(bool enabled);

/// Point-in-time copy of one clip's progress within the current run.
struct ClipProgressSample {
  int clip = 0;
  int64_t committed = 0;  ///< Frames committed so far.
  int64_t total = 0;      ///< Sampled frames the run will commit.
};

/// One clip the pipeline quarantined during the current run (fault
/// recovery; see core::Pipeline::Run).
struct QuarantineSample {
  int clip = 0;
  std::string reason;  ///< Status text of the fault that exhausted retries.
};

/// Point-in-time copy of the whole registry (see RunProgress::Snapshot).
struct ProgressSnapshot {
  std::string phase;             ///< "idle", "running", or a caller phase.
  std::string run_label;         ///< Label of the latest run (may be done).
  int64_t run_seq = 0;           ///< Increments at every BeginRun.
  bool run_in_flight = false;    ///< BeginRun seen without EndRun.
  double run_uptime_seconds = 0.0;
  double process_uptime_seconds = 0.0;
  /// Age of the newest commit in the current run; negative while the run
  /// has not committed anything yet (the watchdog then ages from BeginRun).
  double seconds_since_last_commit = -1.0;
  int64_t frames_committed = 0;  ///< Across all clips (incl. unattributed).
  int64_t frames_total = 0;
  int clips_done = 0;            ///< Clips with committed >= total.
  std::vector<ClipProgressSample> clips;
  std::vector<QuarantineSample> quarantined;  ///< Clips given up on.
};

/// Live progress of the run in flight: per-clip atomic frame counters, the
/// run phase, and a last-commit timestamp the /healthz watchdog ages.
///
/// One "run" is one pass over a clip set (one EvaluateConfig sweep, one
/// bench repetition). Runs are modeled as strictly sequential — a new
/// BeginRun supersedes the previous run's counters (generation-tagged, so
/// scrapers can tell runs apart) — which matches every caller in the tree;
/// concurrent runs would interleave labels but never corrupt counters.
///
/// Concurrency: commit-side updates are relaxed atomic adds on a run state
/// reached through a briefly-held pointer-copy mutex; Snapshot copies the
/// same shared state without stopping writers. Nothing here blocks worker
/// threads beyond that pointer copy, and every method is a no-op while
/// ProgressEnabled() is false.
class RunProgress {
 public:
  /// The process-wide registry (leaked singleton, same rationale as the
  /// metrics registry).
  static RunProgress& Global();

  RunProgress(const RunProgress&) = delete;
  RunProgress& operator=(const RunProgress&) = delete;

  /// Starts a new run generation: `clip_total_frames[i]` is the number of
  /// frames the run will commit for clip i. An idle phase flips to
  /// "running"; a SetPhase override stays in place.
  void BeginRun(std::string label, std::vector<int64_t> clip_total_frames);

  /// Marks the current run finished; a "running" phase flips back to
  /// "idle" (SetPhase overrides stay).
  void EndRun();

  /// Overrides the displayed phase (harness stages like "prepare" or
  /// "baselines" that span many runs). Overrides persist across
  /// BeginRun/EndRun until the next SetPhase.
  void SetPhase(std::string phase);

  /// Commit-side hot path: `frames` more frames of `clip` were committed.
  /// A negative clip index (no attribution available) still counts toward
  /// the run total and feeds the watchdog. Callers in the hot loop should
  /// guard with ProgressEnabled() — the one relaxed flag load — before
  /// paying the call; the method re-checks and early-returns regardless.
  void OnFramesCommitted(int clip, int64_t frames);

  /// Records that the pipeline quarantined `clip` (rare — fault recovery
  /// only, so a mutex-guarded list rather than an atomic structure).
  /// Surfaces in Snapshot().quarantined and /statusz.
  void MarkClipQuarantined(int clip, std::string reason);

  ProgressSnapshot Snapshot() const;

  /// Seconds since the current run last advanced (its newest commit, or
  /// BeginRun while nothing has committed). Negative when no run is in
  /// flight — the watchdog treats that as healthy/idle.
  double SecondsSinceRunAdvanced() const;

 private:
  struct ClipState {
    std::atomic<int64_t> committed{0};
    int64_t total = 0;
  };

  struct RunState {
    std::string label;
    int64_t seq = 0;
    int64_t start_ns = 0;  ///< Process-epoch nanoseconds at BeginRun.
    std::atomic<bool> in_flight{true};
    std::atomic<int64_t> last_commit_ns{-1};
    std::atomic<int64_t> frames_committed{0};
    std::vector<std::unique_ptr<ClipState>> clips;
    int64_t frames_total = 0;
    std::mutex quarantine_mu;
    std::vector<QuarantineSample> quarantined;  // quarantine_mu.
  };

  RunProgress() = default;

  std::shared_ptr<RunState> CurrentState() const;

  mutable std::mutex mu_;
  std::shared_ptr<RunState> state_;  // mu_ (pointer copy only).
  std::string phase_ = "idle";       // mu_.
  int64_t next_seq_ = 1;             // mu_.
};

}  // namespace otif::obs

#endif  // OTIF_OBS_RUN_PROGRESS_H_
