#ifndef OTIF_MEM_BUFFER_POOL_H_
#define OTIF_MEM_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace otif::mem {

class BufferPool;

/// Sole owner of one float array from a BufferPool. Move-only: moving
/// hands the array over and leaves the source null; reset() or the
/// destructor returns it to the pool, from any thread. A default-constructed
/// handle is null.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  ~PooledBuffer() { reset(); }

  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  PooledBuffer(PooledBuffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        capacity_(std::exchange(o.capacity_, 0)),
        pool_(std::exchange(o.pool_, nullptr)) {}
  PooledBuffer& operator=(PooledBuffer&& o) noexcept {
    if (this == &o) return *this;
    reset();
    data_ = std::exchange(o.data_, nullptr);
    capacity_ = std::exchange(o.capacity_, 0);
    pool_ = std::exchange(o.pool_, nullptr);
    return *this;
  }

  float* data() const { return data_; }
  /// Usable floats (the size-class rounding, >= the requested count).
  size_t capacity() const { return capacity_; }
  explicit operator bool() const { return data_ != nullptr; }

  /// Returns the array to its pool and leaves this handle null.
  void reset();

 private:
  friend class BufferPool;
  PooledBuffer(float* data, size_t capacity, BufferPool* pool)
      : data_(data), capacity_(capacity), pool_(pool) {}

  float* data_ = nullptr;
  size_t capacity_ = 0;
  BufferPool* pool_ = nullptr;  // Receives the array back.
};

/// Thread-safe size-class buffer pool for the frame/tensor data path.
/// Requests of 4 KiB and up round up to power-of-two size classes; released
/// arrays park on a per-class freelist (mutex-guarded, LIFO) and satisfy
/// later acquires without touching the heap, so after warmup a pipeline run
/// recycles its frame-sized buffers instead of allocating them. The class
/// mutex also orders one owner's writes before the next owner's reads.
/// Smaller requests (tracker and score tensors) come straight from the heap
/// at their exact size and never touch the freelists or the stats. The pool
/// also aggregates the nn scratch-arena's chunk reservations so the whole
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
  /// unspecified (a fresh or recycled array); callers must write before
  /// reading. `n_floats` == 0 returns a null handle. Requests below the
  /// smallest size class are heap arrays of exactly `n_floats` floats.
  PooledBuffer Acquire(size_t n_floats);

  struct Stats {
    // Pooled (>= 4 KiB) requests only; smaller ones are not counted.
    int64_t hits = 0;            // Acquires served from a freelist.
    int64_t misses = 0;          // Acquires that allocated a new array.
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

  /// Frees every parked array (tests; live handles are unaffected).
  void TrimAll();

 private:
  friend class PooledBuffer;

  // 2^10 .. 2^28 floats (4 KiB .. 1 GiB); smaller requests come from the
  // heap (see Acquire) and larger ones bypass pooling.
  static constexpr uint32_t kMinClassLog2 = 10;
  static constexpr uint32_t kNumClasses = 19;
  static constexpr uint32_t kUnpooledClass = ~0u;
  // Per-class retention cap, in bytes rather than arrays: the 4 KiB class
  // may park thousands of arrays (one low-res render or activation per
  // in-flight frame), while a class of 32 MiB arrays parks at most
  // kMinRetainedPerClass. Arrays above the byte cap still park a couple
  // deep so repeated large acquires don't thrash the heap.
  static constexpr size_t kMaxRetainedBytesPerClass = size_t{32} << 20;
  static constexpr size_t kMinRetainedPerClass = 2;

  struct SizeClass {
    std::mutex mu;
    std::vector<float*> free;  // mu. Each holds the class's capacity.
  };

  /// Takes an array back from its handle: parks it (or frees it when the
  /// class is full or the array is below or above the pooled classes).
  void Release(float* data, size_t capacity);

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
