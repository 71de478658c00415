#ifndef OTIF_UTIL_LIBMVEC_H_
#define OTIF_UTIL_LIBMVEC_H_

// glibc's vector math library (libmvec) and the rounding test that lets a
// kernel keep a libmvec result only where it rounds to the float libm's
// scalar result rounds to. The sensor-noise pass (sim/raster.cc) and the
// tracker's pair features (models/tracker_net.cc) share it.
//
// x86-64 glibc ships libmvec's AVX2 and AVX-512 log, sin and cos from 2.22
// on, and tanh from 2.35; libm.so's link script pulls libmvec in as needed.
// OTIF_LIBMVEC and OTIF_LIBMVEC_TANH say which of them this build has.
// Elsewhere (another libc, another architecture) neither is defined, and
// the kernels build their scalar path only.

#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 22))
#define OTIF_LIBMVEC 1
#if __GLIBC__ > 2 || __GLIBC_MINOR__ >= 35
#define OTIF_LIBMVEC_TANH 1
#endif

// GCC 12 warns that some AVX-512 intrinsics' internal pass-through operand
// "may be used uninitialized" (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

// libmvec's AVX2 and AVX-512 variants (x86-64 vector function ABI, 4 and 8
// doubles per call). glibc states at most 4 ulp of error for each.
extern "C" {
__attribute__((target("avx2"))) __m256d _ZGVdN4v_log(__m256d x);
__attribute__((target("avx2"))) __m256d _ZGVdN4v_sin(__m256d x);
__attribute__((target("avx2"))) __m256d _ZGVdN4v_cos(__m256d x);
__attribute__((target("avx512f"))) __m512d _ZGVeN8v_log(__m512d x);
__attribute__((target("avx512f"))) __m512d _ZGVeN8v_sin(__m512d x);
__attribute__((target("avx512f"))) __m512d _ZGVeN8v_cos(__m512d x);
#ifdef OTIF_LIBMVEC_TANH
__attribute__((target("avx2"))) __m256d _ZGVdN4v_tanh(__m256d x);
__attribute__((target("avx512f"))) __m512d _ZGVeN8v_tanh(__m512d x);
#endif
}

namespace otif::libmvec {

// The rounding test's guard. libm and libmvec each land within a few ulp of
// the exact result, so the scalar and vector doubles of one value differ
// by under 2^-47 of it; 2^-40 leaves a wide margin, and the absolute 2^-80
// sends values near zero to the exact path.
constexpr double kRoundingGuardRel = 0x1p-40;
constexpr double kRoundingGuardAbs = 0x1p-80;

// Rounds four doubles to float. Returns a mask with bit l set when lane l's
// float is proven equal to static_cast<float> of the scalar expression's
// double: both ends of n +- (|n| 2^-40 + 2^-80) round to the same float,
// the scalar double lies between them, and rounding is monotone. A NaN or
// infinite lane is never proven.
__attribute__((target("avx2"))) inline int RoundProven(__m256d n,
                                                       __m128* out) {
  const __m256d magnitude = _mm256_andnot_pd(_mm256_set1_pd(-0.0), n);
  const __m256d guard =
      _mm256_add_pd(_mm256_mul_pd(magnitude, _mm256_set1_pd(kRoundingGuardRel)),
                    _mm256_set1_pd(kRoundingGuardAbs));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(n, guard));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(n, guard));
  *out = lo;
  // Equal bits (so +0 and -0 differ), and not NaN (an infinite n makes
  // n - guard NaN).
  return _mm_movemask_ps(_mm_and_ps(
      _mm_castsi128_ps(
          _mm_cmpeq_epi32(_mm_castps_si128(lo), _mm_castps_si128(hi))),
      _mm_cmpord_ps(lo, lo)));
}

// RoundProven for eight doubles.
__attribute__((target("avx512f"))) inline int RoundProven8(__m512d n,
                                                          __m256* out) {
  const __m512d guard =
      _mm512_add_pd(_mm512_mul_pd(_mm512_abs_pd(n),
                                  _mm512_set1_pd(kRoundingGuardRel)),
                    _mm512_set1_pd(kRoundingGuardAbs));
  const __m256 lo = _mm512_cvtpd_ps(_mm512_sub_pd(n, guard));
  const __m256 hi = _mm512_cvtpd_ps(_mm512_add_pd(n, guard));
  *out = lo;
  return _mm256_movemask_ps(_mm256_and_ps(
      _mm256_castsi256_ps(
          _mm256_cmpeq_epi32(_mm256_castps_si256(lo), _mm256_castps_si256(hi))),
      _mm256_cmp_ps(lo, lo, _CMP_ORD_Q)));
}

}  // namespace otif::libmvec

#endif  // OTIF_LIBMVEC

#endif  // OTIF_UTIL_LIBMVEC_H_
