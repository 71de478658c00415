#include "util/cpu.h"

namespace otif {

Isa CpuIsa() {
  static const Isa isa = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") == 0) return Isa::kBaseline;
    if (__builtin_cpu_supports("avx512f") == 0) return Isa::kAvx2;
    return Isa::kAvx512;
#else
    return Isa::kBaseline;
#endif
  }();
  return isa;
}

}  // namespace otif
