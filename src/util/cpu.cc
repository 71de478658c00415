#include "util/cpu.h"

namespace otif {

bool CpuHasAvx2() {
  static const bool has_avx2 = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return has_avx2;
}

bool CpuHasAvx512f() {
  static const bool has_avx512f = [] {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return CpuHasAvx2() && __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
  }();
  return has_avx512f;
}

}  // namespace otif
