#ifndef OTIF_OBS_PROFILER_H_
#define OTIF_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace otif::obs {

/// In-process sampling CPU profiler with stage attribution.
///
/// A POSIX CPU-time timer (timer_create on CLOCK_PROCESS_CPUTIME_ID)
/// delivers SIGPROF at ~97 Hz of *consumed CPU*; the kernel hands each
/// signal to a currently-running thread, so samples land on threads in
/// proportion to the CPU they burn. The handler captures a stack with
/// backtrace(), tags it with the thread's innermost telemetry span and
/// timeline clip (the thread-locals maintained by ScopedSpan /
/// ScopedContext while telemetry::kProfilerFlag is set), and pushes the
/// raw program counters into the thread's lock-free sample ring. A
/// background collector drains the rings every few tens of milliseconds
/// and folds identical (stage, clip, stack) triples into counts, so the
/// steady state costs no memory growth no matter how long the window runs.
///
/// Symbolization is deferred entirely to snapshot time: Stop() resolves
/// each distinct program counter once through dladdr + __cxa_demangle
/// (cached across calls), far away from any signal context.
///
/// Async-signal safety rules the handler obeys:
///  - one relaxed load of the shared telemetry flag word gates everything
///    (a late signal after Stop() returns immediately);
///  - no allocation, no locks: the per-thread ring is claimed from a
///    pre-allocated pool by one atomic fetch_add, and every slot write is
///    a relaxed/release atomic into memory that already exists;
///  - backtrace() is primed once at Start() so its lazy libgcc
///    initialization (which may allocate) happens outside signal context;
///  - attribution reads are plain thread-locals owned by the interrupted
///    thread itself (local-exec TLS: no __tls_get_addr, no allocation);
///  - errno is saved and restored around the handler.
///
/// The profiler is *observational only*: SA_RESTART keeps interrupted
/// syscalls transparent and nothing here feeds back into pipeline state,
/// so runs are bit-for-bit identical with the profiler on or off
/// (test-enforced). When the profiler is off the only cost anywhere is the
/// one relaxed flag-word load the other observability layers already pay.
///
/// Under ThreadSanitizer or AddressSanitizer the profiler refuses to start
/// (logged warning, Status::FailedPrecondition): sanitizer runtimes
/// intercept signals and take locks the handler must not touch.
struct ProfilerOptions {
  /// Sampling frequency in Hz of process CPU time. 97 (a prime) by
  /// default so sampling cannot phase-lock with 10ms/1ms periodic work.
  int hz = 97;
};

/// One aggregated, symbolized call stack.
struct ProfileStack {
  /// Innermost telemetry span open when the samples hit ("" when the
  /// thread was outside any span).
  std::string stage;
  /// Timeline clip attribution (-1 outside per-clip work).
  int64_t clip = -1;
  /// Symbolized frames, root (outermost caller) first, leaf last —
  /// the order flamegraph collapsed stacks expect.
  std::vector<std::string> frames;
  int64_t count = 0;  ///< Samples that folded into this stack.
};

/// The result of one profiling window.
struct Profile {
  int hz = 0;
  double duration_seconds = 0.0;  ///< Wall time between Start and Stop.
  int64_t samples = 0;            ///< Samples captured into `stacks`.
  int64_t dropped = 0;            ///< Samples lost to full/unclaimed rings.
  /// CPU seconds spent inside the signal handler itself, for overhead
  /// accounting (also exported as obs.profiler.signal_overhead_seconds).
  double signal_overhead_seconds = 0.0;
  std::vector<ProfileStack> stacks;  ///< Sorted by count, descending.
};

/// The process-wide profiler. One window may run at a time; Start while
/// running fails with FailedPrecondition (the /profilez endpoint maps that
/// to 503 so concurrent scrapers cannot corrupt each other's windows).
///
/// Self-metrics, published by the collector into the telemetry registry:
///   obs.profiler.samples                  counter of captured samples
///   obs.profiler.dropped                  counter of lost samples
///   obs.profiler.signal_overhead_seconds  gauge, cumulative handler CPU
class CpuProfiler {
 public:
  static CpuProfiler& Global();

  /// Arms the flag bit, installs the SIGPROF handler, starts the CPU
  /// timer and the collector thread.
  Status Start(const ProfilerOptions& options = {});

  /// Disarms sampling, stops the timer, drains and symbolizes.
  StatusOr<Profile> Stop();

  bool running() const;

  /// Start + sleep(`seconds`) + Stop, for windowed endpoints.
  StatusOr<Profile> ProfileFor(double seconds,
                               const ProfilerOptions& options = {});

 private:
  CpuProfiler() = default;
};

/// Renders a profile as flamegraph-compatible collapsed stacks, one stack
/// per line: "frame;frame;...;leaf <count>\n" (pipe into flamegraph.pl).
/// With `with_context` each line is prefixed with the attribution join,
/// "<stage>;clip<N>;..." — absent attribution renders as "(no stage)" /
/// "(no clip)" so the grammar stays uniform.
std::string ToCollapsed(const Profile& profile, bool with_context);

/// Renders a profile as JSON via the shared json_writer: {"hz", "samples",
/// "dropped", "duration_seconds", "signal_overhead_seconds", "stacks":
/// [{"stage", "clip", "count", "frames": [...]}]}.
std::string ProfileToJson(const Profile& profile);

/// Applies OTIF_PROFILE=<path> once per process: starts a whole-run
/// profile immediately and registers an atexit hook that stops it and
/// writes the result to <path> (JSON when the path ends in ".json",
/// collapsed stacks otherwise). Failures to start (sanitizers, double
/// init) are logged, never fatal. Returns whether a whole-run profile was
/// armed.
bool InitProfilerFromEnv();

}  // namespace otif::obs

#endif  // OTIF_OBS_PROFILER_H_
