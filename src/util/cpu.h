#ifndef OTIF_UTIL_CPU_H_
#define OTIF_UTIL_CPU_H_

namespace otif {

/// The instruction-set tiers the vector kernels (the direct conv, the GEMM,
/// the sensor-noise pass and the pair features' tanh and log) are built
/// for, in order: a CPU that runs one runs every one before it. Every
/// variant of a kernel gives the same bits.
///   kBaseline: the build's target (SSE2 on x86-64), or any non-x86 CPU
///   kAvx2:     AVX2 without FMA
///   kAvx512:   AVX-512F (with AVX2), FMA left unused
enum class Isa { kBaseline, kAvx2, kAvx512 };

/// The highest tier this CPU runs, probed once per process so that every
/// kernel makes the same decision: kAvx512 where it has AVX-512F and AVX2,
/// kAvx2 where it has AVX2, kBaseline otherwise and on a non-x86 build.
/// A kernel runs the lower of this and the highest tier its build
/// compiled: kBaseline for the noise pass and the pair features' tanh
/// where the build lacks libmvec (util/libmvec.h).
Isa CpuIsa();

}  // namespace otif

#endif  // OTIF_UTIL_CPU_H_
