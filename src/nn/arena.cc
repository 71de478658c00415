#include "nn/arena.h"

#include <algorithm>

#include "mem/buffer_pool.h"

namespace otif::nn {

float* ScratchArena::Alloc(size_t n) {
  if (n == 0) n = 1;
  // Advance until a chunk with room is found; allocations within one scope
  // may span chunks, but each individual buffer is contiguous.
  while (chunk_index_ < chunks_.size()) {
    Chunk& c = chunks_[chunk_index_];
    if (c.size - offset_ >= n) {
      float* p = c.data.get() + offset_;
      offset_ += n;
      return p;
    }
    ++chunk_index_;
    offset_ = 0;
  }
  // No room anywhere: grow geometrically so long runs converge on a single
  // chunk (existing chunks are never moved — live pointers stay valid).
  size_t size = std::max(n, kMinChunkFloats);
  if (!chunks_.empty()) size = std::max(size, 2 * chunks_.back().size);
  // Chunk growth is a real hot-path heap allocation; report it to the
  // shared pool so im2col scratch shows up in the same accounting as the
  // frame-buffer misses (bench memory section, mem.arena.* gauges).
  mem::BufferPool::Global().NoteArenaAlloc(size * sizeof(float));
  chunks_.push_back(Chunk{std::make_unique<float[]>(size), size});
  chunk_index_ = chunks_.size() - 1;
  offset_ = n;
  return chunks_.back().data.get();
}

size_t ScratchArena::FloatsReserved() const {
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

ScratchArena& ScratchArena::ThreadLocal() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace otif::nn
