#include "obs/run_progress.h"

#include <chrono>
#include <utility>

#include "util/logging.h"

namespace otif::obs {
namespace {

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process start anchor for the /statusz uptime field. Captured at first
/// use, which in practice is the first BeginRun or Snapshot — close enough
/// to process start for an uptime display.
int64_t ProcessStartNs() {
  static const int64_t start = MonotonicNowNs();
  return start;
}

}  // namespace

void SetProgressEnabled(bool enabled) {
  telemetry::internal::SetFlag(telemetry::kProgressFlag, enabled);
}

RunProgress::Run::Run(std::string label, int64_t seq,
                      std::vector<int64_t> clip_totals)
    : label_(std::move(label)),
      seq_(seq),
      start_ns_(MonotonicNowNs()),
      totals_(std::move(clip_totals)),
      committed_(totals_.size()) {}

void RunProgress::Run::CommitFrames(int clip, int64_t frames) {
  OTIF_CHECK_LT(static_cast<size_t>(clip), committed_.size());
  committed_[static_cast<size_t>(clip)].fetch_add(frames,
                                                  std::memory_order_relaxed);
}

void RunProgress::Run::MarkQuarantined(int clip, std::string reason) {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_.push_back(QuarantineSample{clip, std::move(reason)});
}

void RunProgress::Run::End() {
  // Release pairs with Snapshot's acquire: a snapshot that sees the run
  // finished also sees every commit made before End.
  in_flight_.store(false, std::memory_order_release);
}

RunProgress& RunProgress::Global() {
  // Leaked: runs may still report during static destruction.
  static RunProgress* progress = new RunProgress();
  return *progress;
}

std::shared_ptr<RunProgress::Run> RunProgress::BeginRun(
    std::string label, std::vector<int64_t> clip_total_frames) {
  if (!ProgressEnabled()) return nullptr;
  ProcessStartNs();  // Anchor uptime no later than the first run.
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Run> run(
      new Run(std::move(label), next_seq_++, std::move(clip_total_frames)));
  latest_ = run;
  return run;
}

void RunProgress::SetPhase(std::string phase) {
  if (!ProgressEnabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = std::move(phase);
}

ProgressSnapshot RunProgress::Snapshot() const {
  ProgressSnapshot out;
  const int64_t now_ns = MonotonicNowNs();
  out.process_uptime_seconds =
      static_cast<double>(now_ns - ProcessStartNs()) * 1e-9;
  std::shared_ptr<const Run> run;
  {
    std::lock_guard<std::mutex> lock(mu_);
    run = latest_;
    out.phase = phase_;
  }
  if (run == nullptr) return out;
  out.run_label = run->label_;
  out.run_seq = run->seq_;
  out.run_in_flight = run->in_flight_.load(std::memory_order_acquire);
  out.run_uptime_seconds =
      static_cast<double>(now_ns - run->start_ns_) * 1e-9;
  out.clips.reserve(run->totals_.size());
  for (size_t i = 0; i < run->totals_.size(); ++i) {
    ClipProgressSample clip;
    clip.clip = static_cast<int>(i);
    clip.committed = run->committed_[i].load(std::memory_order_relaxed);
    clip.total = run->totals_[i];
    out.frames_committed += clip.committed;
    out.frames_total += clip.total;
    if (clip.total > 0 && clip.committed >= clip.total) ++out.clips_done;
    out.clips.push_back(clip);
  }
  {
    std::lock_guard<std::mutex> lock(run->quarantine_mu_);
    out.quarantined = run->quarantined_;
  }
  return out;
}

}  // namespace otif::obs
