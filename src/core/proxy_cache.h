#ifndef OTIF_CORE_PROXY_CACHE_H_
#define OTIF_CORE_PROXY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "nn/tensor.h"

namespace otif::core {

/// Thread-safe memo of proxy model scores, keyed by (clip seed, frame,
/// resolution index). A frame's scores are a deterministic function of that
/// key, so the memo only saves work and never changes a result.
///
/// Only loops that score the same frames more than once pass a memo to
/// Pipeline / EvaluateConfig: the tuner, which re-scores its validation
/// frames under many thresholds and configurations, and the harness and
/// Table 4 loops that execute every curve point on the same test clips.
/// Otif::Execute passes none, so a single pass over a dataset scores each
/// frame straight through and stores nothing. The memo therefore holds at
/// most the validation and test frames of one run times the trained
/// resolutions, and needs no eviction.
///
/// All methods are const and internally synchronized: the memo lives in
/// TrainedModels, and pipeline runs share it across worker threads.
class ProxyScoreCache {
 public:
  using Key = std::tuple<uint64_t, int, int>;

  ProxyScoreCache() = default;

  ProxyScoreCache(const ProxyScoreCache&) = delete;
  ProxyScoreCache& operator=(const ProxyScoreCache&) = delete;

  /// Lookup probes the memo and counts a hit or a miss; it never computes.
  /// On a miss the caller scores the frame outside the lock, since scoring
  /// is the expensive part, and stores the result with Insert.
  /// Pipeline::Run and the tuner's caching phase both score one frame at a
  /// time. Two threads that miss on the same key both score it and the
  /// first Insert wins: Insert returns the entry actually stored under the
  /// key. Scores must therefore be deterministic per key.
  bool Lookup(const Key& key, nn::Tensor* out) const;
  nn::Tensor Insert(const Key& key, nn::Tensor value) const;

  /// Drops all entries. Counters are kept *by design*: hits and misses
  /// count over the memo's whole life, not just the resident set.
  void Clear() const;

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;

 private:
  mutable std::mutex mu_;
  mutable std::map<Key, nn::Tensor> entries_;  // Guarded by mu_.
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
};

}  // namespace otif::core

#endif  // OTIF_CORE_PROXY_CACHE_H_
