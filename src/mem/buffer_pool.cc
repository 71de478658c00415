#include "mem/buffer_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace otif::mem {
namespace {

/// Whether OTIF_POOL_DEBUG per-miss logging is requested (checked once per
/// process; the miss path should not pay a getenv per allocation).
bool PoolDebugFromEnv() {
  static const bool enabled = std::getenv("OTIF_POOL_DEBUG") != nullptr;
  return enabled;
}

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
  if (block_ == nullptr) return;
  internal::Block* block = block_;
  block_ = nullptr;
  // Release ordering so every write through data() happens-before the next
  // owner's reads; the matching acquire fence runs only on the last drop.
  if (block->refs.fetch_sub(1, std::memory_order_release) == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    block->pool->Release(block);
  }
}

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();  // Leaked: see header.
  return *pool;
}

BufferPool::BufferPool() = default;

BufferPool::~BufferPool() { TrimAll(); }

PooledBuffer BufferPool::Acquire(size_t n_floats) {
  if (n_floats == 0) return PooledBuffer();
  // Below the smallest size class (4 KiB), serve an exact-size heap block:
  // no freelist, mutex, shared stats atomic or fault point. Over 99% of the
  // millions of requests an end-to-end run makes are tensors of at most 128
  // floats (recurrent-tracker and score tensors), and routing them through
  // one per-class mutex and four shared counters serialized the worker
  // threads. malloc's per-thread caches serve them without shared state;
  // the frame-sized buffers pooling exists for stay pooled.
  if (n_floats < (size_t{1} << kMinClassLog2)) {
    auto* block = new internal::Block(n_floats);
    block->size_class = kUnpooledClass;
    block->pool = this;
    block->refs.store(1, std::memory_order_relaxed);
    return PooledBuffer(block);
  }
  const uint32_t cls = ClassForSize(n_floats, kMinClassLog2, kNumClasses);
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
  internal::Block* block = nullptr;
  if (cls != kUnpooledClass && !deny_freelist) {
    SizeClass& sc = classes_[cls];
    std::lock_guard<std::mutex> lock(sc.mu);
    if (!sc.free.empty()) {
      block = sc.free.back();
      sc.free.pop_back();
    }
  }
  if (block != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_retained_.fetch_sub(
        static_cast<int64_t>(block->capacity * sizeof(float)),
        std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    // Set OTIF_POOL_DEBUG=1 to log each miss: at steady state misses should
    // not happen, and each log line is an allocation site to chase. Emitted
    // at kDebug severity so a long run at the default threshold (kInfo) is
    // not flooded — pair with OTIF_LOG_LEVEL=debug to see the lines.
    if (PoolDebugFromEnv()) {
      OTIF_LOG(kDebug) << "[buffer_pool miss] n_floats=" << n_floats
                       << " class=" << cls;
    }
    const size_t capacity =
        cls != kUnpooledClass ? (size_t{1} << (kMinClassLog2 + cls))
                              : n_floats;
    block = new internal::Block(capacity);
    block->size_class = cls;
    block->pool = this;
  }
  block->refs.store(1, std::memory_order_relaxed);
  bytes_in_flight_.fetch_add(
      static_cast<int64_t>(block->capacity * sizeof(float)),
      std::memory_order_relaxed);
  return PooledBuffer(block);
}

void BufferPool::Release(internal::Block* block) {
  OTIF_CHECK(block != nullptr);
  // A small heap block (see Acquire) never entered the shared accounting.
  if (block->capacity < (size_t{1} << kMinClassLog2)) {
    delete block;
    return;
  }
  bytes_in_flight_.fetch_sub(
      static_cast<int64_t>(block->capacity * sizeof(float)),
      std::memory_order_relaxed);
  if (block->size_class != kUnpooledClass) {
    // All blocks in a class share one capacity, so the byte cap reduces to a
    // per-class block-count cap.
    const size_t block_bytes = block->capacity * sizeof(float);
    const size_t max_blocks = std::max(
        kMinRetainedPerClass, kMaxRetainedBytesPerClass / block_bytes);
    SizeClass& sc = classes_[block->size_class];
    std::lock_guard<std::mutex> lock(sc.mu);
    if (sc.free.size() < max_blocks) {
      sc.free.push_back(block);
      bytes_retained_.fetch_add(
          static_cast<int64_t>(block->capacity * sizeof(float)),
          std::memory_order_relaxed);
      return;
    }
  }
  delete block;
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
  for (SizeClass& sc : classes_) {
    std::vector<internal::Block*> drained;
    {
      std::lock_guard<std::mutex> lock(sc.mu);
      drained.swap(sc.free);
    }
    for (internal::Block* block : drained) {
      bytes_retained_.fetch_sub(
          static_cast<int64_t>(block->capacity * sizeof(float)),
          std::memory_order_relaxed);
      delete block;
    }
  }
}

}  // namespace otif::mem
