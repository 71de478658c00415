#ifndef OTIF_CORE_PROXY_CACHE_H_
#define OTIF_CORE_PROXY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <tuple>

#include "nn/tensor.h"

namespace otif::core {

/// Thread-safe bounded cache of proxy model scores, keyed by
/// (clip seed, frame, resolution index). Tuner evaluations re-score the
/// same validation frames under many thresholds and configurations, so the
/// hit rate is high; the bound keeps long tuning sessions from growing the
/// cache without limit (FIFO eviction — recomputation is deterministic, so
/// eviction never changes results, only timing).
///
/// All methods are const and internally synchronized: the cache lives in
/// TrainedModels, which pipeline runs share across worker threads.
class ProxyScoreCache {
 public:
  using Key = std::tuple<uint64_t, int, int>;

  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit ProxyScoreCache(size_t capacity = kDefaultCapacity);

  ProxyScoreCache(const ProxyScoreCache&) = delete;
  ProxyScoreCache& operator=(const ProxyScoreCache&) = delete;

  /// Returns the cached scores for `key`, or runs `compute` and caches its
  /// result. `compute` runs outside the lock (scoring is the expensive
  /// part); if two threads miss on the same key concurrently, both compute
  /// and the first insertion wins — compute must be deterministic per key.
  nn::Tensor GetOrCompute(const Key& key,
                          const std::function<nn::Tensor()>& compute) const;

  /// Batched-miss protocol: Lookup probes the cache (counting a hit or a
  /// miss) without computing; the caller scores all missing keys in one
  /// batched model invocation and stores them with Insert. Insert follows
  /// the same first-write-wins rule as GetOrCompute and returns the entry
  /// actually stored under the key.
  bool Lookup(const Key& key, nn::Tensor* out) const;
  nn::Tensor Insert(const Key& key, nn::Tensor value) const;

  /// Drops all entries. Counters are kept *by design*: Clear is used to
  /// bound memory between phases while hit/miss/evict statistics keep
  /// describing the whole session.
  void Clear() const;

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  mutable std::map<Key, nn::Tensor> entries_;  // Guarded by mu_.
  mutable std::deque<Key> insertion_order_;    // Guarded by mu_.
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  mutable std::atomic<int64_t> evictions_{0};
};

}  // namespace otif::core

#endif  // OTIF_CORE_PROXY_CACHE_H_
