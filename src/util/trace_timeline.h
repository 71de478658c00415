#ifndef OTIF_UTIL_TRACE_TIMELINE_H_
#define OTIF_UTIL_TRACE_TIMELINE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace otif::telemetry {

class SpanSite;  // trace.h

/// Timeline tracing: per-thread lock-free ring buffers of begin/end events
/// that export as Chrome trace-event JSON (loadable in Perfetto or
/// chrome://tracing).
///
/// Unlike the SpanSite aggregates in trace.h (which fold every span into
/// count/total/min/max), the timeline keeps *individual* events with
/// timestamps and thread ids, so one can see where inside a parallel clip
/// sweep the wall time goes — at the cost of a bounded ring per thread that
/// forgets everything but the most recent BufferCapacity() events.
///
/// Events are emitted by ScopedSpan (trace.h) when collection is armed;
/// when it is off the entire feature costs one relaxed atomic load per span
/// site (shared with the telemetry flag — see telemetry::Flags()).
namespace timeline {

/// Context propagated with task submission: which unit of work the current
/// thread is executing on behalf of. Carried as a plain thread-local (no
/// atomics — it is only read by its own thread) and captured into
/// ThreadPool batches, so a worker executing clip 7's task attributes its
/// events to clip 7 even three fan-outs deep.
struct TraceContext {
  /// Index of the clip being processed, or -1 outside any per-clip work.
  int64_t clip = -1;
};

/// The calling thread's current context (default-constructed when unset).
TraceContext CurrentContext();

/// The innermost span site currently open on the calling thread, or nullptr
/// outside any span. Maintained by ScopedSpan *only while the profiler flag
/// (telemetry::kProfilerFlag) is set, so the everything-off cost stays one
/// relaxed flag load. Read by the SIGPROF handler to attribute samples to a
/// stage: a plain thread-local pointer (local-exec TLS in this static
/// build), so the read is async-signal-safe and never torn — the handler
/// interrupts the very thread that owns the slot.
const SpanSite* CurrentSpanSite();

/// Installs `site` as the thread's innermost span and returns the previous
/// one (ScopedSpan restores it on destruction, giving stack semantics).
const SpanSite* ExchangeCurrentSpanSite(const SpanSite* site);

/// RAII: installs `context` as the calling thread's context and restores
/// the previous one on destruction. Scopes may nest.
class ScopedContext {
 public:
  explicit ScopedContext(TraceContext context);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  const TraceContext previous_;
};

/// Whether event collection is armed (== telemetry::Flags() & kTimelineFlag).
bool CollectionEnabled();

/// Arms or disarms collection (tests and benches; flip only between runs —
/// in-flight ScopedSpans that began while armed still emit their end event).
void SetCollectionEnabled(bool enabled);

/// Per-thread ring capacity (events), 32768 unless a test shrinks it to
/// exercise ring wraparound. Applies to buffers created *after* the call;
/// existing threads keep their rings. Rounded up to a power of two.
void SetBufferCapacity(size_t capacity);
size_t BufferCapacity();

/// Appends a begin/end event for `site` to the calling thread's ring with
/// the current timestamp and context. Callers must check CollectionEnabled()
/// first (ScopedSpan folds that check into its single flag load).
void EmitBegin(const SpanSite* site);
void EmitEnd(const SpanSite* site);

/// One decoded event, as drained from the rings.
struct Event {
  std::string name;
  int64_t ts_ns = 0;   ///< Nanoseconds since the process trace epoch.
  uint64_t tid = 0;    ///< Small stable id of the producing thread.
  int64_t clip = -1;   ///< TraceContext::clip at emission.
  char phase = 'B';    ///< 'B' begin / 'E' end (Chrome trace phases).
};

/// Drains every thread's ring into one list sorted by timestamp. Safe to
/// call while producers are running (seqlock slots: events overwritten
/// mid-read are skipped, never torn); the result is then best-effort rather
/// than a consistent cut.
std::vector<Event> SnapshotEvents();

/// Empties every ring. Call only while producers are quiescent (between
/// runs): a concurrently emitting thread may interleave with the clear.
void ClearEvents();

/// Renders events as a Chrome trace-event JSON document
/// ({"traceEvents": [...]}, "B"/"E" phases, microsecond timestamps, one
/// Chrome tid per producer thread, args carrying the clip id).
std::string ToChromeTraceJson(const std::vector<Event>& events);

/// SnapshotEvents() + ToChromeTraceJson() written to `path`.
Status WriteChromeTrace(const std::string& path);

/// Applies the timeline environment configuration once per process:
///  - OTIF_TRACE_TIMELINE: "1"/"on"/"true" arms collection and exports a
///    Chrome trace to "otif_trace.json" at process exit; any other
///    non-empty, non-false value does the same with the value as the output
///    path; unset/"0"/"off"/"false" leaves the timeline off.
void InitFromEnv();

}  // namespace timeline
}  // namespace otif::telemetry

#endif  // OTIF_UTIL_TRACE_TIMELINE_H_
