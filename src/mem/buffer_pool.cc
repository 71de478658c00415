#include "mem/buffer_pool.h"

#include <algorithm>

#include "util/fault_injection.h"
#include "util/telemetry.h"

namespace otif::mem {
namespace {

/// Smallest size class whose capacity covers `n` floats.
uint32_t ClassForSize(size_t n, uint32_t min_log2, uint32_t num_classes) {
  size_t cap = size_t{1} << min_log2;
  for (uint32_t c = 0; c < num_classes; ++c, cap <<= 1) {
    if (cap >= n) return c;
  }
  return ~0u;  // Oversize: caller bypasses pooling.
}

}  // namespace

void PooledBuffer::reset() {
  if (data_ == nullptr) return;
  pool_->Release(std::exchange(data_, nullptr), std::exchange(capacity_, 0));
  pool_ = nullptr;
}

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();  // Leaked: see header.
  return *pool;
}

BufferPool::BufferPool() = default;

BufferPool::~BufferPool() { TrimAll(); }

PooledBuffer BufferPool::Acquire(size_t n_floats) {
  if (n_floats == 0) return PooledBuffer();
  // Below the smallest size class (4 KiB), serve an exact-size heap array:
  // no freelist, mutex, shared stats atomic or fault point. About nine in
  // ten of the million-plus requests an end-to-end run makes are tensors of
  // at most 128 floats (mostly the recurrent tracker's per-pair and
  // per-detection features), and routing them through one per-class mutex
  // and four shared counters serialized the worker threads. malloc's
  // per-thread caches serve them without shared state; the frame-sized
  // buffers pooling exists for stay pooled.
  if (n_floats < (size_t{1} << kMinClassLog2)) {
    return PooledBuffer(new float[n_floats], n_floats, this);
  }
  const uint32_t cls = ClassForSize(n_floats, kMinClassLog2, kNumClasses);
  const size_t capacity = cls != kUnpooledClass
                              ? (size_t{1} << (kMinClassLog2 + cls))
                              : n_floats;
  const auto bytes = static_cast<int64_t>(capacity * sizeof(float));
  // Chaos hook: "mem.acquire" kDeny bypasses the freelist, forcing a heap
  // miss — callers see only a pool-stats change, never a behavioral one,
  // which is exactly the failure shape of a pool under memory pressure.
  bool deny_freelist = false;
  {
    fault::Injection inj;
    if (OTIF_FAULT_POINT("mem.acquire", -1, &inj) &&
        inj.kind == fault::Kind::kDeny) {
      deny_freelist = true;
    }
  }
  float* data = nullptr;
  if (cls != kUnpooledClass && !deny_freelist) {
    SizeClass& sc = classes_[cls];
    std::lock_guard<std::mutex> lock(sc.mu);
    if (!sc.free.empty()) {
      data = sc.free.back();
      sc.free.pop_back();
    }
  }
  if (data != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_retained_.fetch_sub(bytes, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    data = new float[capacity];
  }
  bytes_in_flight_.fetch_add(bytes, std::memory_order_relaxed);
  return PooledBuffer(data, capacity, this);
}

void BufferPool::Release(float* data, size_t capacity) {
  // A small heap array (see Acquire) never entered the shared accounting.
  if (capacity < (size_t{1} << kMinClassLog2)) {
    delete[] data;
    return;
  }
  const auto bytes = static_cast<int64_t>(capacity * sizeof(float));
  bytes_in_flight_.fetch_sub(bytes, std::memory_order_relaxed);
  // A pooled array's capacity is exactly its class size; an oversize one
  // maps to no class and is freed.
  const uint32_t cls = ClassForSize(capacity, kMinClassLog2, kNumClasses);
  if (cls != kUnpooledClass) {
    // All arrays in a class share one capacity, so the byte cap reduces to
    // a per-class count cap.
    const size_t max_arrays = std::max(
        kMinRetainedPerClass,
        kMaxRetainedBytesPerClass / (capacity * sizeof(float)));
    SizeClass& sc = classes_[cls];
    std::lock_guard<std::mutex> lock(sc.mu);
    if (sc.free.size() < max_arrays) {
      sc.free.push_back(data);
      bytes_retained_.fetch_add(bytes, std::memory_order_relaxed);
      return;
    }
  }
  delete[] data;
}

BufferPool::Stats BufferPool::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes_in_flight = bytes_in_flight_.load(std::memory_order_relaxed);
  s.bytes_retained = bytes_retained_.load(std::memory_order_relaxed);
  s.arena_allocs = arena_allocs_.load(std::memory_order_relaxed);
  s.arena_bytes_reserved = arena_bytes_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::NoteArenaAlloc(size_t bytes) {
  arena_allocs_.fetch_add(1, std::memory_order_relaxed);
  arena_bytes_.fetch_add(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
}

void BufferPool::PublishTelemetry() const {
  const Stats s = GetStats();
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  registry.GetGauge("mem.pool.hits")->Set(static_cast<double>(s.hits));
  registry.GetGauge("mem.pool.misses")->Set(static_cast<double>(s.misses));
  registry.GetGauge("mem.pool.hit_rate")->Set(s.hit_rate());
  registry.GetGauge("mem.pool.bytes_in_flight")
      ->Set(static_cast<double>(s.bytes_in_flight));
  registry.GetGauge("mem.pool.bytes_retained")
      ->Set(static_cast<double>(s.bytes_retained));
  registry.GetGauge("mem.arena.allocations")
      ->Set(static_cast<double>(s.arena_allocs));
  registry.GetGauge("mem.arena.bytes_reserved")
      ->Set(static_cast<double>(s.arena_bytes_reserved));
}

void BufferPool::TrimAll() {
  for (uint32_t cls = 0; cls < kNumClasses; ++cls) {
    SizeClass& sc = classes_[cls];
    std::vector<float*> drained;
    {
      std::lock_guard<std::mutex> lock(sc.mu);
      drained.swap(sc.free);
    }
    const size_t bytes = (size_t{1} << (kMinClassLog2 + cls)) * sizeof(float);
    bytes_retained_.fetch_sub(static_cast<int64_t>(drained.size() * bytes),
                              std::memory_order_relaxed);
    for (float* data : drained) delete[] data;
  }
}

}  // namespace otif::mem
