#ifndef OTIF_UTIL_THREAD_POOL_H_
#define OTIF_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/trace_timeline.h"

namespace otif {

/// Fixed-size worker pool for embarrassingly parallel outer loops (per-clip
/// pipeline runs, tuner candidate evaluation, per-baseline harness runs).
///
/// The unit of work is a *batch*: ParallelFor(n, fn) runs fn(0..n-1) across
/// the workers and the calling thread, returning when every index has
/// completed. Determinism contract: results are keyed by index (ParallelMap
/// stores fn(i) into slot i), so outputs are independent of thread
/// interleaving as long as fn(i) itself is deterministic and touches no
/// cross-index mutable state.
///
/// Nested ParallelFor calls (a worker's task itself fanning out) are safe:
/// every caller drains its own batch before blocking, so the only wait is
/// for indices already in flight on other threads, which always make
/// progress — no cyclic waits are possible.
///
/// With num_threads = 1 the pool spawns no workers and ParallelFor runs
/// inline on the caller, byte-identical to a plain serial loop.
class ThreadPool {
 public:
  /// `num_threads` counts the calling thread: the pool spawns
  /// num_threads - 1 workers. Clamped below to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread).
  int num_threads() const { return num_threads_; }

  /// Runs fn(0..n-1) across the pool; returns when all calls completed.
  /// fn must not throw (the codebase aborts via CHECK instead).
  ///
  /// Trace-context propagation: the submitting thread's
  /// timeline::CurrentContext() is captured with the batch and installed
  /// around every task execution, so events a worker emits on behalf of
  /// this batch are attributed to the submitter's clip — including through
  /// nested ParallelFor fan-outs. A task may still narrow the context
  /// itself (e.g. per-clip ScopedContext inside the body).
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// The process-wide default pool. Sized from the OTIF_WORKERS environment
  /// variable when set, otherwise AvailableCpus(). Invalid OTIF_WORKERS
  /// values (non-numeric, trailing garbage, < 1) fall back to
  /// AvailableCpus() with a logged warning.
  static ThreadPool* Default();

  /// CPUs the calling thread may run on: the count of its affinity mask
  /// (sched_getaffinity), so a pinned or cpuset-limited process gets one
  /// lane per CPU it has; std::thread::hardware_concurrency() where the mask
  /// is unavailable. At least 1.
  static int AvailableCpus();

  /// Parses an OTIF_WORKERS-style value. Returns the parsed count when
  /// `value` is a positive decimal integer; otherwise logs a warning naming
  /// the rejected value and returns `fallback`. Exposed for tests.
  static int ParseWorkerEnv(const char* value, int fallback);

  /// Replaces the default pool with one of `num_threads` lanes. Must not be
  /// called while another thread is using the default pool; intended for
  /// benchmark sweeps and tests.
  static void SetDefaultThreads(int num_threads);

 private:
  struct Batch {
    int64_t n = 0;
    const std::function<void(int64_t)>* fn = nullptr;
    /// Submitter's trace context, re-installed around each task.
    telemetry::timeline::TraceContext ctx;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> completed{0};
  };

  void WorkerLoop();
  /// Claims and runs indices of `batch` until none remain unclaimed.
  void DrainBatch(Batch* batch);
  /// Runs one index of `batch`; notifies waiters on batch completion.
  void RunOne(Batch* batch, int64_t index);

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // New batch available or shutdown.
  std::condition_variable done_cv_;  // Some batch finished an index.
  std::vector<std::shared_ptr<Batch>> active_;  // Guarded by mu_.
  bool shutdown_ = false;                       // Guarded by mu_.
};

/// Runs fn(0..n-1) on `pool` and returns the results ordered by index.
/// The result type must be default-constructible and movable.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, int64_t n, Fn&& fn) {
  using R = std::invoke_result_t<Fn&, int64_t>;
  static_assert(!std::is_void_v<R>, "use ParallelFor for void tasks");
  std::vector<R> results(static_cast<size_t>(n));
  pool->ParallelFor(
      n, [&](int64_t i) { results[static_cast<size_t>(i)] = fn(i); });
  return results;
}

}  // namespace otif

#endif  // OTIF_UTIL_THREAD_POOL_H_
