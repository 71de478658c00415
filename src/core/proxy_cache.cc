#include "core/proxy_cache.h"

#include <utility>

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
};

const CacheTelemetry& GetCacheTelemetry() {
  static const CacheTelemetry t{
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.hits"),
      telemetry::MetricsRegistry::Global().GetCounter("proxy_cache.misses"),
  };
  return t;
}

}  // namespace

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
  return entries_.emplace(key, std::move(value)).first->second;
}

void ProxyScoreCache::Clear() const {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t ProxyScoreCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace otif::core
