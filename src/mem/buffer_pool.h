#ifndef OTIF_MEM_BUFFER_POOL_H_
#define OTIF_MEM_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace otif::mem {

class BufferPool;

namespace internal {

/// One pooled allocation: the float storage plus the refcount and the
/// size-class bookkeeping the pool needs to take it back. Blocks are only
/// ever created by BufferPool and only destroyed by it (or by TrimAll).
struct Block {
  explicit Block(size_t capacity_floats)
      : capacity(capacity_floats),
        data(std::make_unique<float[]>(capacity_floats)) {}

  std::atomic<int32_t> refs{0};
  uint32_t size_class = 0;      // Freelist index; kUnpooledClass if unpooled.
  size_t capacity = 0;          // Floats.
  BufferPool* pool = nullptr;   // Owning pool; receives the last release.
  std::unique_ptr<float[]> data;
};

}  // namespace internal

/// Refcounted handle to a pooled float buffer. Copying shares the block
/// (refcount increment); the block returns to its pool's freelist when the
/// last handle drops. Handles are cheap to move and safe to destroy from
/// any thread. A default-constructed handle is null.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  ~PooledBuffer() { reset(); }

  PooledBuffer(const PooledBuffer& o) : block_(o.block_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PooledBuffer& operator=(const PooledBuffer& o) {
    if (this == &o) return *this;
    PooledBuffer tmp(o);  // Acquire first: self-block-safe.
    std::swap(block_, tmp.block_);
    return *this;
  }
  PooledBuffer(PooledBuffer&& o) noexcept : block_(o.block_) {
    o.block_ = nullptr;
  }
  PooledBuffer& operator=(PooledBuffer&& o) noexcept {
    if (this == &o) return *this;
    reset();
    block_ = o.block_;
    o.block_ = nullptr;
    return *this;
  }

  float* data() const {
    return block_ != nullptr ? block_->data.get() : nullptr;
  }
  /// Usable floats (the size-class rounding, >= the requested count).
  size_t capacity() const { return block_ != nullptr ? block_->capacity : 0; }
  /// True when this is the only live handle to the block — the holder may
  /// write in place without aliasing another owner.
  bool unique() const {
    return block_ != nullptr &&
           block_->refs.load(std::memory_order_acquire) == 1;
  }
  explicit operator bool() const { return block_ != nullptr; }

  /// Drops this handle; the last drop releases the block to its pool.
  void reset();

 private:
  friend class BufferPool;
  explicit PooledBuffer(internal::Block* block) : block_(block) {}

  internal::Block* block_ = nullptr;
};

/// Thread-safe size-class buffer pool for the frame/tensor data path.
/// Requests of 4 KiB and up round up to power-of-two size classes; released
/// blocks park on a per-class freelist (mutex-guarded, LIFO) and satisfy
/// later acquires without touching the heap, so after warmup a pipeline run
/// recycles its frame-sized buffers instead of allocating them. Smaller
/// requests (tracker and score tensors) come straight from malloc at their
/// exact size and never touch the freelists or the stats. The pool also
/// aggregates the nn scratch-arena's chunk reservations so the whole
/// hot-path memory story shows up in one set of counters.
///
/// Statistics are intrinsic relaxed atomics (not the telemetry registry) so
/// benches can delta them across a measurement window independently of
/// telemetry::ResetAll(); PublishTelemetry() mirrors them into the registry
/// as `mem.*` gauges for run reports.
class BufferPool {
 public:
  /// The process-wide pool (leaked singleton: handles held by static-storage
  /// images/tensors may release during shutdown).
  static BufferPool& Global();

  BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Returns a handle to at least `n_floats` floats. Contents are
  /// unspecified (possibly a recycled buffer); callers must write before
  /// reading. `n_floats` == 0 returns a null handle. Requests below the
  /// smallest size class are heap blocks of exactly `n_floats` floats.
  PooledBuffer Acquire(size_t n_floats);

  struct Stats {
    // Pooled (>= 4 KiB) requests only; smaller ones are not counted.
    int64_t hits = 0;            // Acquires served from a freelist.
    int64_t misses = 0;          // Acquires that allocated a new block.
    int64_t bytes_in_flight = 0;  // Bytes currently held by live handles.
    int64_t bytes_retained = 0;   // Bytes parked on freelists.
    int64_t arena_allocs = 0;     // Scratch-arena chunk allocations.
    int64_t arena_bytes_reserved = 0;  // Scratch-arena bytes reserved.

    double hit_rate() const {
      const int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 1.0;
    }
  };
  Stats GetStats() const;

  /// Called by nn::ScratchArena when it reserves a new chunk, so im2col
  /// scratch growth is visible in the same accounting as pool misses.
  void NoteArenaAlloc(size_t bytes);

  /// Mirrors current stats into the telemetry registry: gauges
  /// mem.pool.{hits,misses,hit_rate,bytes_in_flight,bytes_retained} and
  /// mem.arena.{allocations,bytes_reserved}.
  void PublishTelemetry() const;

  /// Frees every parked block (tests; live handles are unaffected).
  void TrimAll();

 private:
  friend class PooledBuffer;

  // 2^10 .. 2^28 floats (4 KiB .. 1 GiB); smaller requests come from the
  // heap (see Acquire) and larger ones bypass pooling.
  static constexpr uint32_t kMinClassLog2 = 10;
  static constexpr uint32_t kNumClasses = 19;
  static constexpr uint32_t kUnpooledClass = ~0u;
  // Per-class retention cap, in bytes rather than blocks: the 4 KiB class
  // may park thousands of blocks (one low-res render or activation per
  // in-flight frame), while a class of 32 MiB blocks parks at most
  // kMinRetainedPerClass. Blocks above the byte cap still park a couple
  // deep so repeated large acquires don't thrash the heap.
  static constexpr size_t kMaxRetainedBytesPerClass = size_t{32} << 20;
  static constexpr size_t kMinRetainedPerClass = 2;

  struct SizeClass {
    std::mutex mu;
    std::vector<internal::Block*> free;  // mu.
  };

  /// Takes `block` back from the last handle: parks it (or frees it when
  /// the class is full or the block is unpooled).
  void Release(internal::Block* block);

  SizeClass classes_[kNumClasses];
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> bytes_in_flight_{0};
  std::atomic<int64_t> bytes_retained_{0};
  std::atomic<int64_t> arena_allocs_{0};
  std::atomic<int64_t> arena_bytes_{0};
};

}  // namespace otif::mem

#endif  // OTIF_MEM_BUFFER_POOL_H_
