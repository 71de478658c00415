#ifndef OTIF_UTIL_CPU_H_
#define OTIF_UTIL_CPU_H_

namespace otif {

/// Whether the CPU this process runs on supports AVX2. Probed once per
/// process, so every kernel that picks an AVX2 variant (the direct conv,
/// the sensor-noise pass) makes the same decision. Always false on a
/// non-x86 build.
bool CpuHasAvx2();

}  // namespace otif

#endif  // OTIF_UTIL_CPU_H_
