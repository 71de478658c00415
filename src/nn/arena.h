#ifndef OTIF_NN_ARENA_H_
#define OTIF_NN_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace otif::nn {

/// Bump-pointer scratch arena for inference temporaries (im2col panels,
/// packed weight panels, a proxy frame's staged input and activations).
/// Memory is organized as a list of chunks that are never reallocated, so
/// pointers returned by Alloc stay valid until the enclosing ScratchScope
/// unwinds — even if later allocations grow the arena. Chunks are retained
/// across scopes, so steady-state inference does no heap allocation for
/// scratch.
///
/// Not thread-safe by itself; use ThreadLocal() to get this thread's
/// instance (the inference hot path runs on many pool workers at once).
class ScratchArena {
 public:
  /// Size of the first chunk a thread's arena reserves: big enough for one
  /// frame's whole proxy forward pass at the largest resolution (input,
  /// two activations and the largest im2col panel, 56,576 floats), so
  /// scoring never chains chunks. Code that tiles its scratch (the conv
  /// backward pass) sizes each scope to fit here, adding no arena memory
  /// beyond what inference already reserved.
  static constexpr size_t kMinChunkFloats = size_t{1} << 16;  // 256 KiB.

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Returns an uninitialized buffer of `n` floats valid until the
  /// innermost enclosing ScratchScope is destroyed.
  float* Alloc(size_t n);

  /// Total floats reserved across all chunks (diagnostics).
  size_t FloatsReserved() const;

  /// The calling thread's arena.
  static ScratchArena& ThreadLocal();

 private:
  friend class ScratchScope;

  struct Chunk {
    std::unique_ptr<float[]> data;
    size_t size = 0;
  };

  std::vector<Chunk> chunks_;
  size_t chunk_index_ = 0;  // Chunk currently allocated from.
  size_t offset_ = 0;       // Floats used within that chunk.
};

/// RAII watermark: allocations made while the scope is alive are released
/// (pointer-bump only, memory retained) when it is destroyed. Scopes nest.
class ScratchScope {
 public:
  explicit ScratchScope(ScratchArena& arena)
      : arena_(arena),
        saved_chunk_(arena.chunk_index_),
        saved_offset_(arena.offset_) {}
  ~ScratchScope() {
    arena_.chunk_index_ = saved_chunk_;
    arena_.offset_ = saved_offset_;
  }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

 private:
  ScratchArena& arena_;
  size_t saved_chunk_;
  size_t saved_offset_;
};

}  // namespace otif::nn

#endif  // OTIF_NN_ARENA_H_
