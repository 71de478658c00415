#ifndef OTIF_MEM_BUFFER_POOL_H_
#define OTIF_MEM_BUFFER_POOL_H_

#include <cstdint>

namespace otif::mem {

// Kept only so the source of the perfbench/ benchmark, which reads pool
// statistics around its traced Execute, still compiles. Nothing is pooled:
// nn::Tensor and video::Image own plain heap arrays, so GetStats() always
// returns zeros. Nothing else may use it.
class BufferPool {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
  };

  static BufferPool& Global() {
    static BufferPool pool;
    return pool;
  }

  Stats GetStats() const { return {}; }
};

}  // namespace otif::mem

#endif  // OTIF_MEM_BUFFER_POOL_H_
