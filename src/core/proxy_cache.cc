#include "core/proxy_cache.h"

#include <utility>

#include "util/logging.h"
#include "util/telemetry.h"

namespace otif::core {
namespace {

/// Global mirrors of the per-cache counters so cache behavior shows up in
/// telemetry snapshots without plumbing cache pointers into report code.
/// Written only when telemetry is enabled; the cache's own atomics stay the
/// source of truth for its accessors.
struct CacheTelemetry {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* evictions;
};

const CacheTelemetry& GetCacheTelemetry() {
  static const CacheTelemetry t{
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.hits"),
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.misses"),
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.evictions"),
  };
  return t;
}

}  // namespace

ProxyScoreCache::ProxyScoreCache(size_t capacity) : capacity_(capacity) {
  OTIF_CHECK_GE(capacity, 1u);
}

nn::Tensor ProxyScoreCache::GetOrCompute(
    const Key& key, const std::function<nn::Tensor()>& compute) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Enabled()) GetCacheTelemetry().hits->Add(1);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::Enabled()) GetCacheTelemetry().misses->Add(1);
  nn::Tensor scores = compute();

  std::lock_guard<std::mutex> lock(mu_);
  // Another thread may have inserted the key meanwhile; first write wins.
  if (entries_.emplace(key, scores).second) {
    insertion_order_.push_back(key);
    while (entries_.size() > capacity_) {
      entries_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Enabled()) GetCacheTelemetry().evictions->Add(1);
    }
  }
  return scores;
}

bool ProxyScoreCache::Lookup(const Key& key, nn::Tensor* out) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Enabled()) GetCacheTelemetry().hits->Add(1);
      *out = it->second;
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::Enabled()) GetCacheTelemetry().misses->Add(1);
  return false;
}

nn::Tensor ProxyScoreCache::Insert(const Key& key, nn::Tensor value) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(key, std::move(value));
  if (inserted) {
    insertion_order_.push_back(key);
    while (entries_.size() > capacity_) {
      entries_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::Enabled()) GetCacheTelemetry().evictions->Add(1);
    }
    // The sweep never erases the fresh key: it sits at the back of the
    // insertion order and capacity_ >= 1, so `it` stays valid.
  }
  return it->second;
}

void ProxyScoreCache::Clear() const {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  insertion_order_.clear();
}

size_t ProxyScoreCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace otif::core
