#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/logging.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace otif {
namespace {

/// Pool-wide telemetry, resolved once. busy_seconds accumulates per-task
/// execution time (inline path included), so
///   utilization = busy_seconds / (wall_seconds * lanes)
/// over any measurement interval. queue_depth samples the number of active
/// batches whenever one is enqueued.
struct PoolTelemetry {
  telemetry::Counter* tasks;
  telemetry::Counter* batches;
  telemetry::Gauge* busy_seconds;
  telemetry::Histogram* queue_depth;
};

const PoolTelemetry& GetPoolTelemetry() {
  static const PoolTelemetry t{
      telemetry::MetricsRegistry::Global().GetCounter(
          "threadpool.tasks_executed"),
      telemetry::MetricsRegistry::Global().GetCounter("threadpool.batches"),
      telemetry::MetricsRegistry::Global().GetGauge("threadpool.busy_seconds"),
      telemetry::MetricsRegistry::Global().GetHistogram(
          "threadpool.queue_depth", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}),
  };
  return t;
}

/// Runs one task, charging its wall-clock to the pool accumulators when
/// telemetry is on.
void RunTask(const std::function<void(int64_t)>& fn, int64_t index) {
  if (!telemetry::Enabled()) {
    fn(index);
    return;
  }
  const PoolTelemetry& t = GetPoolTelemetry();
  const auto start = std::chrono::steady_clock::now();
  fn(index);
  t.busy_seconds->Add(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  t.tasks->Add(1);
}

int DefaultThreadCount() {
  if (const char* env = std::getenv("OTIF_WORKERS")) {
    return ThreadPool::ParseWorkerEnv(env, ThreadPool::AvailableCpus());
  }
  return ThreadPool::AvailableCpus();
}

std::mutex g_default_mu;
std::unique_ptr<ThreadPool>& DefaultSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunOne(Batch* batch, int64_t index) {
  // Run under the submitter's trace context (no-op for the submitter
  // itself; workers inherit it for the duration of the task).
  telemetry::timeline::ScopedContext scope(batch->ctx);
  RunTask(*batch->fn, index);
  const int64_t done = batch->completed.fetch_add(1) + 1;
  if (done == batch->n) {
    // Lock to pair with the waiter's predicate check before notifying.
    { std::lock_guard<std::mutex> lock(mu_); }
    done_cv_.notify_all();
  }
}

void ThreadPool::DrainBatch(Batch* batch) {
  for (;;) {
    const int64_t i = batch->next.fetch_add(1);
    if (i >= batch->n) return;
    RunOne(batch, i);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        if (shutdown_) return true;
        for (const auto& b : active_) {
          if (b->next.load() < b->n) return true;
        }
        return false;
      });
      if (shutdown_) return;
      for (const auto& b : active_) {
        if (b->next.load() < b->n) {
          batch = b;
          break;
        }
      }
    }
    if (batch != nullptr) DrainBatch(batch.get());
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    if (telemetry::Enabled()) GetPoolTelemetry().batches->Add(1);
    for (int64_t i = 0; i < n; ++i) RunTask(fn, i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  batch->ctx = telemetry::timeline::CurrentContext();
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(batch);
    if (telemetry::Enabled()) {
      const PoolTelemetry& t = GetPoolTelemetry();
      t.batches->Add(1);
      t.queue_depth->Record(static_cast<double>(active_.size()));
    }
  }
  work_cv_.notify_all();

  // The caller participates: claim indices until none are left, then wait
  // for in-flight indices on other threads.
  DrainBatch(batch.get());
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return batch->completed.load() == n; });
    active_.erase(std::find(active_.begin(), active_.end(), batch));
  }
}

int ThreadPool::ParseWorkerEnv(const char* value, int fallback) {
  constexpr int64_t kMaxWorkers = 1 << 16;
  int64_t n = 0;
  if (value != nullptr && ParseInt64(value, &n) && n >= 1 &&
      n <= kMaxWorkers) {
    return static_cast<int>(n);
  }
  OTIF_LOG(kWarning) << "OTIF_WORKERS=\"" << (value != nullptr ? value : "")
                     << "\" is not an integer in [1, " << kMaxWorkers
                     << "]; using " << fallback << " worker thread(s)";
  return fallback;
}

int ThreadPool::AvailableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool* ThreadPool::Default() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  std::unique_ptr<ThreadPool>& slot = DefaultSlot();
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(DefaultThreadCount());
  return slot.get();
}

void ThreadPool::SetDefaultThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  DefaultSlot() = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace otif
