#ifndef OTIF_UTIL_TRACE_H_
#define OTIF_UTIL_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "util/telemetry.h"
#include "util/trace_timeline.h"

namespace otif::telemetry {

/// Returns the span site registered under `name` in the global metrics
/// registry, creating it on first use. The pointer is stable for the process
/// lifetime; hot paths should resolve it once (OTIF_SPAN does this with a
/// function-local static).
inline SpanSite* GetSpan(const std::string& name) {
  return MetricsRegistry::Global().GetSpan(name);
}

/// RAII span: samples the steady clock on construction and folds the
/// elapsed wall-clock into `site` on destruction; when the timeline is
/// armed it also emits begin/end events into the calling thread's ring
/// (trace_timeline.h). With everything disabled at construction the span
/// is inert — one relaxed atomic load (the shared flag word), no clock
/// reads, no writes. Spans may nest freely (each records its own inclusive
/// time).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite* site) {
    const uint32_t flags = Flags();
    if (flags & kTelemetryFlag) {
      site_ = site;
      start_ = std::chrono::steady_clock::now();
    }
    if (flags & kTimelineFlag) {
      timeline_site_ = site;
      timeline::EmitBegin(site);
    }
    if (flags & kProfilerFlag) {
      // Publish this span as the thread's innermost so the sampling
      // profiler can attribute SIGPROF samples to a stage (profiler.h).
      profile_parent_ = timeline::ExchangeCurrentSpanSite(site);
      profile_pushed_ = true;
    }
  }

  ~ScopedSpan() {
    if (site_ != nullptr) {
      site_->Record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
    }
    if (timeline_site_ != nullptr) timeline::EmitEnd(timeline_site_);
    // Keyed on the constructor's flag sample, not a fresh one, so every
    // push is popped even if the profiler stops mid-span.
    if (profile_pushed_) timeline::ExchangeCurrentSpanSite(profile_parent_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_ = nullptr;
  const SpanSite* timeline_site_ = nullptr;
  const SpanSite* profile_parent_ = nullptr;
  bool profile_pushed_ = false;
  std::chrono::steady_clock::time_point start_;
};

/// Captures every metric of the global registry, span sites included.
inline TelemetrySnapshot CaptureSnapshot() {
  return MetricsRegistry::Global().Snapshot();
}

/// Zeroes all metrics and span aggregates (registrations survive). Call
/// between benchmark repetitions so run reports do not accumulate.
inline void ResetAll() { MetricsRegistry::Global().Reset(); }

#define OTIF_SPAN_CONCAT_INNER_(a, b) a##b
#define OTIF_SPAN_CONCAT_(a, b) OTIF_SPAN_CONCAT_INNER_(a, b)

/// Scoped wall-clock span over the rest of the enclosing block:
///   OTIF_SPAN("detect");
/// `name` must be constant at the call site (the site is resolved once into
/// a function-local static); use GetSpan + ScopedSpan for dynamic names.
#define OTIF_SPAN(name)                                                     \
  static ::otif::telemetry::SpanSite* const OTIF_SPAN_CONCAT_(              \
      otif_span_site_, __LINE__) = ::otif::telemetry::GetSpan(name);        \
  ::otif::telemetry::ScopedSpan OTIF_SPAN_CONCAT_(otif_span_, __LINE__)(    \
      OTIF_SPAN_CONCAT_(otif_span_site_, __LINE__))

}  // namespace otif::telemetry

#endif  // OTIF_UTIL_TRACE_H_
