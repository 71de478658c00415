#ifndef OTIF_UTIL_TELEMETRY_H_
#define OTIF_UTIL_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace otif::telemetry {

/// Bit flags of the observability subsystems, packed into one atomic so an
/// instrumentation site pays a single relaxed load to learn the state of
/// all of them (the "everything off" cost contract).
inline constexpr uint32_t kTelemetryFlag = 1u << 0;  // Aggregate metrics.
inline constexpr uint32_t kTimelineFlag = 1u << 1;   // Event ring buffers.
inline constexpr uint32_t kProgressFlag = 1u << 2;   // Live run progress.
inline constexpr uint32_t kProfilerFlag = 1u << 3;   // Sampling CPU profiler.
inline constexpr uint32_t kFaultFlag = 1u << 4;      // Fault injection armed.

/// Current flag word (one relaxed atomic load).
uint32_t Flags();

/// Whether aggregate telemetry collection is enabled. Initialized once from
/// the OTIF_TELEMETRY environment variable ("off", "0", or "false" disable
/// it; anything else, including unset, enables it) and overridable at
/// runtime. Disabled-mode cost is a single relaxed atomic load at every
/// instrumentation site: spans skip their clock reads and metric writers
/// are bypassed by the call sites that guard on Enabled().
bool Enabled();

/// Overrides the telemetry flag (benches and tests; not synchronized with
/// in-flight spans, so flip it only between runs).
void SetEnabled(bool enabled);

namespace internal {
/// Sets or clears one flag bit (used by trace_timeline to arm collection).
void SetFlag(uint32_t mask, bool enabled);
}  // namespace internal

/// Monotonically increasing integer metric (events, items processed).
/// Updates are one relaxed atomic add: contention-free across the worker
/// pool.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Double-valued metric: Set overwrites (instantaneous readings), Add
/// accumulates via a CAS loop so concurrent writers never lose updates
/// (seconds accumulators).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one extra overflow bucket catches everything above the last bound.
/// Record is a bucket scan plus two relaxed atomic adds — no locks, safe
/// from any number of threads.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i` (i == bounds().size() is the overflow bucket).
  int64_t bucket_count(size_t i) const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.value(); }
  void Reset();

 private:
  const std::vector<double> bounds_;
  const std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds+1 slots.
  std::atomic<int64_t> count_{0};
  Gauge sum_;
};

/// Default histogram bounds for latencies in seconds: 1us .. 10s,
/// decade-spaced.
std::vector<double> DefaultLatencyBounds();

// --- Snapshots ---------------------------------------------------------------

struct CounterSample {
  std::string name;
  int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<int64_t> buckets;  // bounds.size() + 1 entries.
  int64_t count = 0;
  double sum = 0.0;
};

/// Aggregate of one named span site: how often it ran and the wall-clock it
/// accumulated.
struct SpanSample {
  std::string name;
  int64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Point-in-time copy of every registered metric, each kind sorted by name.
struct TelemetrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;
};

/// The Prometheus exposition name a registered metric exports under:
/// "otif_" + `name` with every character outside [a-zA-Z0-9_:] replaced by
/// '_' (so "stage/detect.sim_seconds" becomes
/// "otif_stage_detect_sim_seconds"). Shared by registration-time collision
/// checking and the /metrics exporter so the two can never disagree.
std::string PrometheusMetricName(const std::string& name);

/// Lookup helpers for report builders; return nullptr when absent.
const CounterSample* FindCounter(const TelemetrySnapshot& snapshot,
                                 const std::string& name);
const GaugeSample* FindGauge(const TelemetrySnapshot& snapshot,
                             const std::string& name);
const SpanSample* FindSpan(const TelemetrySnapshot& snapshot,
                           const std::string& name);

/// Aggregation point for one named span (trace.h's ScopedSpan and
/// OTIF_SPAN): every span that closes over it folds its wall-clock duration
/// in with relaxed atomics (count, total, min, max) — no locks, no
/// per-event allocation, contention-free across the worker pool.
class SpanSite {
 public:
  explicit SpanSite(std::string name);

  SpanSite(const SpanSite&) = delete;
  SpanSite& operator=(const SpanSite&) = delete;

  const std::string& name() const { return name_; }

  /// Folds one completed span of `seconds` into the aggregate.
  void Record(double seconds);

  SpanSample Sample() const;
  void Reset();

 private:
  const std::string name_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> total_{0.0};
  std::atomic<double> min_{0.0};  // Set to +inf by the ctor until recorded.
  std::atomic<double> max_{0.0};
};

// --- Registry ----------------------------------------------------------------

/// Process-wide, thread-safe registry of named metrics: counters, gauges,
/// histograms and span sites. Registration takes a lock; the returned
/// pointers are stable for the process lifetime, so hot paths resolve a
/// metric once (function-local static) and then update it lock-free.
/// Metrics are never unregistered; Reset() zeroes values but keeps
/// registrations.
class MetricsRegistry {
 public:
  /// The process-wide registry (leaked singleton: safe to use from worker
  /// threads during shutdown).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// Repeated calls with the same name return the same pointer; a
  /// histogram's bounds are fixed by the first registration.
  ///
  /// Every first registration normalizes `name` through
  /// PrometheusMetricName and records it in a per-registry table; two
  /// *different* names (of any metric kind, spans included) that sanitize
  /// to the same exposition name are a fatal error at the second
  /// registration — a name collision would silently merge two series in
  /// every /metrics scrape.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = DefaultLatencyBounds());
  SpanSite* GetSpan(const std::string& name);

  TelemetrySnapshot Snapshot() const;
  void Reset();

 private:
  /// Claims `name`'s sanitized exposition name for `kind` (fatal on
  /// collision with a previously claimed different name). Caller holds mu_.
  void ClaimName(const char* kind, const std::string& name);

  struct NameClaim {
    std::string kind;
    std::string original;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;      // mu_.
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;          // mu_.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;  // mu_.
  std::map<std::string, std::unique_ptr<SpanSite>> spans_;        // mu_.
  std::map<std::string, NameClaim> claimed_names_;                // mu_.
};

}  // namespace otif::telemetry

#endif  // OTIF_UTIL_TELEMETRY_H_
