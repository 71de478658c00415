#ifndef OTIF_UTIL_CPU_H_
#define OTIF_UTIL_CPU_H_

namespace otif {

/// Whether the CPU this process runs on supports AVX2. Probed once per
/// process, so every kernel that picks an AVX2 variant (the direct conv,
/// the sensor-noise pass) makes the same decision. Always false on a
/// non-x86 build.
bool CpuHasAvx2();

/// Whether the CPU supports AVX-512F as well as AVX2 (every AVX-512 CPU
/// has both), so a kernel's AVX-512 variant may use AVX2 instructions too.
/// Probed once per process, like CpuHasAvx2(); always false on a non-x86
/// build.
bool CpuHasAvx512f();

}  // namespace otif

#endif  // OTIF_UTIL_CPU_H_
