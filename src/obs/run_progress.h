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
/// telemetry flag word (telemetry::kProgressFlag), so a caller pays a
/// single relaxed atomic load to find out — the same "everything off" cost
/// contract the spans follow. Armed by InitIntrospectionFromEnv when
/// OTIF_METRICS_PORT is set, or explicitly by tests.
inline bool ProgressEnabled() {
  return (telemetry::Flags() & telemetry::kProgressFlag) != 0;
}
void SetProgressEnabled(bool enabled);

/// Point-in-time copy of one clip's progress within a run.
struct ClipProgressSample {
  int clip = 0;
  int64_t committed = 0;  ///< Frames committed so far.
  int64_t total = 0;      ///< Sampled frames the run will commit.
};

/// One clip fault recovery quarantined during a run (see
/// core::Pipeline::Run).
struct QuarantineSample {
  int clip = 0;
  std::string reason;  ///< Status text of the fault that exhausted retries.
};

/// Point-in-time copy of the registry: the phase and the latest run (see
/// RunProgress::Snapshot).
struct ProgressSnapshot {
  std::string phase;             ///< What the harness set; "idle" otherwise.
  std::string run_label;         ///< Label of the latest run (may be done).
  int64_t run_seq = 0;           ///< Increments at every BeginRun.
  bool run_in_flight = false;    ///< The latest run has not ended.
  double run_uptime_seconds = 0.0;
  double process_uptime_seconds = 0.0;
  int64_t frames_committed = 0;  ///< Sum over the clips.
  int64_t frames_total = 0;
  int clips_done = 0;            ///< Clips with committed >= total.
  std::vector<ClipProgressSample> clips;
  std::vector<QuarantineSample> quarantined;  ///< Clips given up on.
};

/// Live progress of config evaluations: the harness phase and the most
/// recently begun run, which /statusz shows. One run is one EvaluateConfig
/// call (one pass of a config over a clip set).
///
/// Each run belongs to whoever began it: BeginRun returns the run, and its
/// owner commits frames, marks quarantined clips and ends it through that
/// handle. Runs that overlap (the tuner evaluates candidates concurrently)
/// therefore never count into each other, and work outside any run
/// (Prepare's S* pass) counts nowhere. The registry only remembers which
/// run began last.
///
/// Concurrency: a commit is one relaxed atomic add on the run's own
/// counter; the registry mutex is taken only by BeginRun, SetPhase and
/// Snapshot. Snapshot copies shared state without stopping writers. While
/// ProgressEnabled() is false BeginRun returns null and SetPhase does
/// nothing.
class RunProgress {
 public:
  /// One run's per-clip frame counters and quarantine list. Thread-safe:
  /// every clip of the run may report from its own worker.
  class Run {
   public:
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    /// `frames` more frames of `clip` (an index into the totals the run
    /// began with) were committed.
    void CommitFrames(int clip, int64_t frames);

    /// Records that fault recovery quarantined `clip` (rare, so a
    /// mutex-guarded list); `reason` is the fault's status text.
    void MarkQuarantined(int clip, std::string reason);

    /// Marks the run finished. Commits made before End are visible to any
    /// Snapshot that sees the run finished.
    void End();

   private:
    friend class RunProgress;

    Run(std::string label, int64_t seq, std::vector<int64_t> clip_totals);

    const std::string label_;
    const int64_t seq_;
    const int64_t start_ns_;  ///< Process-epoch nanoseconds at BeginRun.
    const std::vector<int64_t> totals_;
    std::vector<std::atomic<int64_t>> committed_;  ///< Per clip.
    std::atomic<bool> in_flight_{true};
    mutable std::mutex quarantine_mu_;
    std::vector<QuarantineSample> quarantined_;  // quarantine_mu_.
  };

  /// The process-wide registry (leaked singleton, same rationale as the
  /// metrics registry).
  static RunProgress& Global();

  RunProgress(const RunProgress&) = delete;
  RunProgress& operator=(const RunProgress&) = delete;

  /// Begins a run and makes it the one Snapshot shows:
  /// `clip_total_frames[i]` is the number of frames the run will commit for
  /// clip i. Returns null while ProgressEnabled() is false.
  std::shared_ptr<Run> BeginRun(std::string label,
                                std::vector<int64_t> clip_total_frames);

  /// Sets the displayed phase (harness stages like "prepare" or
  /// "baselines" that span many runs).
  void SetPhase(std::string phase);

  ProgressSnapshot Snapshot() const;

 private:
  RunProgress() = default;

  mutable std::mutex mu_;
  std::shared_ptr<const Run> latest_;  // mu_ (pointer copy only).
  std::string phase_ = "idle";         // mu_.
  int64_t next_seq_ = 1;               // mu_.
};

}  // namespace otif::obs

#endif  // OTIF_OBS_RUN_PROGRESS_H_
