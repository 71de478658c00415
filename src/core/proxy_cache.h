#ifndef OTIF_CORE_PROXY_CACHE_H_
#define OTIF_CORE_PROXY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
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

  /// Lookup probes the cache and counts a hit or a miss; it never computes.
  /// On a miss the caller scores the frame outside the lock, since scoring
  /// is the expensive part, and stores the result with Insert.
  /// Pipeline::Run and the tuner's caching phase both score one frame at a
  /// time. Two threads that miss on the same key both score it and the
  /// first Insert wins: Insert returns the entry actually stored under the
  /// key. Scores must therefore be deterministic per key.
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
