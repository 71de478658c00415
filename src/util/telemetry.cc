#include "util/telemetry.h"

#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace otif::telemetry {
namespace {

bool EnabledFromEnv() {
  const char* env = std::getenv("OTIF_TELEMETRY");
  if (env == nullptr) return true;
  return std::strcmp(env, "off") != 0 && std::strcmp(env, "0") != 0 &&
         std::strcmp(env, "false") != 0;
}

std::atomic<uint32_t>& FlagsWord() {
  static std::atomic<uint32_t> flags{EnabledFromEnv() ? kTelemetryFlag : 0u};
  return flags;
}

}  // namespace

uint32_t Flags() { return FlagsWord().load(std::memory_order_relaxed); }

bool Enabled() { return (Flags() & kTelemetryFlag) != 0; }

void SetEnabled(bool enabled) {
  internal::SetFlag(kTelemetryFlag, enabled);
}

namespace internal {

void SetFlag(uint32_t mask, bool enabled) {
  if (enabled) {
    FlagsWord().fetch_or(mask, std::memory_order_relaxed);
  } else {
    FlagsWord().fetch_and(~mask, std::memory_order_relaxed);
  }
}

}  // namespace internal

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    OTIF_CHECK_LT(bounds_[i], bounds_[i + 1]) << "bounds must ascend";
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Record(double value) {
  size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.Add(value);
}

int64_t Histogram::bucket_count(size_t i) const {
  OTIF_CHECK_LE(i, bounds_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.Reset();
}

std::vector<double> DefaultLatencyBounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "otif_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  return out;
}

const CounterSample* FindCounter(const TelemetrySnapshot& snapshot,
                                 const std::string& name) {
  for (const CounterSample& s : snapshot.counters) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const GaugeSample* FindGauge(const TelemetrySnapshot& snapshot,
                             const std::string& name) {
  for (const GaugeSample& s : snapshot.gauges) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SpanSample* FindSpan(const TelemetrySnapshot& snapshot,
                           const std::string& name) {
  for (const SpanSample& s : snapshot.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: worker threads may still record during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::ClaimName(const char* kind, const std::string& name) {
  const std::string sanitized = PrometheusMetricName(name);
  const auto [it, inserted] =
      claimed_names_.emplace(sanitized, NameClaim{kind, name});
  if (!inserted) {
    // Same original name, same kind: the registration dedupe path never
    // reaches here, so this is a cross-kind reuse of one name — as much a
    // collision as two names sanitizing together.
    OTIF_LOG(kFatal)
        << "telemetry metric name collision: " << kind << " \"" << name
        << "\" and " << it->second.kind << " \"" << it->second.original
        << "\" both export as Prometheus metric \"" << sanitized
        << "\"; rename one at its registration site";
  }
}

void MetricsRegistry::RegisterExternalName(const char* kind,
                                           const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ClaimName(kind, name);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) {
    ClaimName("counter", name);
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) {
    ClaimName("gauge", name);
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    ClaimName("histogram", name);
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

TelemetrySnapshot MetricsRegistry::Snapshot() const {
  TelemetrySnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.bounds = histogram->bounds();
    for (size_t i = 0; i <= sample.bounds.size(); ++i) {
      sample.buckets.push_back(histogram->bucket_count(i));
    }
    sample.count = histogram->count();
    sample.sum = histogram->sum();
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace otif::telemetry
