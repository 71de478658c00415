#include "sim/raster.h"

#include <algorithm>
#include <cmath>

#include "util/cpu.h"
#include "util/logging.h"
#include "util/rng.h"

// The vector noise passes call glibc's libmvec, which x86-64 glibc ships
// from 2.22 on (with its AVX2 and AVX-512 variants); libm.so's link script
// pulls it in as needed.
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 22))
#define OTIF_NOISE_X86 1
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
}
#endif

namespace otif::sim {
namespace {

// Per-pixel sensor noise: one zero-mean Gaussian of this sigma per pixel.
constexpr double kSensorNoiseSigma = 0.015;

// Uniform pairs drawn per stack chunk of the noise pass (6 KiB of stack).
constexpr size_t kNoiseChunkPairs = 256;

// One pair's noise by the scalar expression Rng::Gaussian(0.0,
// kSensorNoiseSigma) evaluates: the cosine term, then the sine term that
// Gaussian() caches for the next call.
inline void NoisePairExact(double u1, double u2, float* noise) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  noise[0] =
      static_cast<float>(0.0 + kSensorNoiseSigma * (r * std::cos(theta)));
  noise[1] =
      static_cast<float>(0.0 + kSensorNoiseSigma * (r * std::sin(theta)));
}

// Deterministic per-pixel hash noise in [0, 1).
double HashNoise(uint64_t seed, int x, int y) {
  uint64_t h = seed;
  h ^= static_cast<uint64_t>(x + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<uint64_t>(y + 1) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Object intensity: deterministic per object id, biased away from the
// mid-gray background so objects are learnable.
float ObjectIntensity(int64_t id) {
  const double u = HashNoise(0x51edULL, static_cast<int>(id), 17);
  // Half the objects dark (0.02..0.17), half bright (0.75..0.95).
  if (u < 0.5) return static_cast<float>(0.02 + 0.3 * u);
  return static_cast<float>(0.75 + 0.4 * (u - 0.5));
}

#ifdef OTIF_NOISE_X86
// The rounding test's guard. libm and libmvec each land within a few ulp of
// the exact log, sin and cos, so the scalar and vector doubles of one noise
// value differ by under 2^-47 of it; 2^-40 leaves a wide margin, and the
// absolute 2^-80 sends values near zero to the exact path.
constexpr double kRoundingGuardRel = 0x1p-40;
constexpr double kRoundingGuardAbs = 0x1p-80;

// Rounds four noise values to float. Returns a mask with bit l set when
// lane l's float is proven equal to static_cast<float> of the scalar
// expression's double: both ends of n +- (|n| 2^-40 + 2^-80) round to the
// same float, the scalar double lies between them, and rounding is
// monotone.
__attribute__((target("avx2"))) inline int RoundProven(__m256d n,
                                                       __m128* out) {
  const __m256d magnitude = _mm256_andnot_pd(_mm256_set1_pd(-0.0), n);
  const __m256d guard =
      _mm256_add_pd(_mm256_mul_pd(magnitude, _mm256_set1_pd(kRoundingGuardRel)),
                    _mm256_set1_pd(kRoundingGuardAbs));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(n, guard));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(n, guard));
  *out = lo;
  return _mm_movemask_ps(_mm_castsi128_ps(
      _mm_cmpeq_epi32(_mm_castps_si128(lo), _mm_castps_si128(hi))));
}

// RoundProven for eight noise values.
__attribute__((target("avx512f"))) inline int RoundProven8(__m512d n,
                                                          __m256* out) {
  const __m512d guard =
      _mm512_add_pd(_mm512_mul_pd(_mm512_abs_pd(n),
                                  _mm512_set1_pd(kRoundingGuardRel)),
                    _mm512_set1_pd(kRoundingGuardAbs));
  const __m256 lo = _mm512_cvtpd_ps(_mm512_sub_pd(n, guard));
  const __m256 hi = _mm512_cvtpd_ps(_mm512_add_pd(n, guard));
  *out = lo;
  return _mm256_movemask_ps(_mm256_castsi256_ps(
      _mm256_cmpeq_epi32(_mm256_castps_si256(lo), _mm256_castps_si256(hi))));
}
#endif

}  // namespace

#ifdef OTIF_NOISE_X86
// External linkage, so that profiles (dladdr) name the variant that ran.
// AVX2 alone, not FMA: every step rounds where the scalar expression does.
__attribute__((target("avx2"))) size_t SensorNoiseAvx2(const double* u1,
                                                       const double* u2,
                                                       size_t pairs,
                                                       float* noise) {
  const __m256d two_pi = _mm256_set1_pd(2.0 * M_PI);
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  const __m256d sigma = _mm256_set1_pd(kSensorNoiseSigma);
  const __m256d zero = _mm256_setzero_pd();
  size_t exact = 0;
  size_t k = 0;
  for (; k + 4 <= pairs; k += 4) {
    const __m256d theta = _mm256_mul_pd(two_pi, _mm256_loadu_pd(u2 + k));
    const __m256d r = _mm256_sqrt_pd(
        _mm256_mul_pd(minus_two, _ZGVdN4v_log(_mm256_loadu_pd(u1 + k))));
    const __m256d cos_term = _mm256_add_pd(
        zero, _mm256_mul_pd(sigma, _mm256_mul_pd(r, _ZGVdN4v_cos(theta))));
    const __m256d sin_term = _mm256_add_pd(
        zero, _mm256_mul_pd(sigma, _mm256_mul_pd(r, _ZGVdN4v_sin(theta))));
    __m128 c, s;
    const int proven = RoundProven(cos_term, &c) & RoundProven(sin_term, &s);
    // Interleave: pair k + l writes its cosine term, then its sine term.
    _mm_storeu_ps(noise + 2 * k, _mm_unpacklo_ps(c, s));
    _mm_storeu_ps(noise + 2 * k + 4, _mm_unpackhi_ps(c, s));
    if (proven == 0xf) continue;
    for (size_t l = 0; l < 4; ++l) {
      if ((proven >> l) & 1) continue;
      NoisePairExact(u1[k + l], u2[k + l], noise + 2 * (k + l));
      ++exact;
    }
  }
  for (; k < pairs; ++k) NoisePairExact(u1[k], u2[k], noise + 2 * k);
  return exact;
}

// SensorNoiseAvx2 eight pairs at a time with libmvec's AVX-512 variants.
// External linkage, for the same reason.
__attribute__((target("avx512f"))) size_t SensorNoiseAvx512(
    const double* u1, const double* u2, size_t pairs, float* noise) {
  const __m512d two_pi = _mm512_set1_pd(2.0 * M_PI);
  const __m512d minus_two = _mm512_set1_pd(-2.0);
  const __m512d sigma = _mm512_set1_pd(kSensorNoiseSigma);
  const __m512d zero = _mm512_setzero_pd();
  size_t exact = 0;
  size_t k = 0;
  for (; k + 8 <= pairs; k += 8) {
    const __m512d theta = _mm512_mul_pd(two_pi, _mm512_loadu_pd(u2 + k));
    const __m512d r = _mm512_sqrt_pd(
        _mm512_mul_pd(minus_two, _ZGVeN8v_log(_mm512_loadu_pd(u1 + k))));
    const __m512d cos_term = _mm512_add_pd(
        zero, _mm512_mul_pd(sigma, _mm512_mul_pd(r, _ZGVeN8v_cos(theta))));
    const __m512d sin_term = _mm512_add_pd(
        zero, _mm512_mul_pd(sigma, _mm512_mul_pd(r, _ZGVeN8v_sin(theta))));
    __m256 c, s;
    const int proven = RoundProven8(cos_term, &c) & RoundProven8(sin_term, &s);
    // Interleave: pair k + l writes its cosine term, then its sine term.
    // The unpacks pair lanes within each 128-bit half; the permutes put
    // the halves in order.
    const __m256 lo = _mm256_unpacklo_ps(c, s);
    const __m256 hi = _mm256_unpackhi_ps(c, s);
    _mm256_storeu_ps(noise + 2 * k, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(noise + 2 * k + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
    if (proven == 0xff) continue;
    for (size_t l = 0; l < 8; ++l) {
      if ((proven >> l) & 1) continue;
      NoisePairExact(u1[k + l], u2[k + l], noise + 2 * (k + l));
      ++exact;
    }
  }
  for (; k < pairs; ++k) NoisePairExact(u1[k], u2[k], noise + 2 * k);
  return exact;
}
#endif

NoiseIsa SensorNoiseIsa() {
#ifdef OTIF_NOISE_X86
  if (CpuHasAvx512f()) return NoiseIsa::kAvx512;
  if (CpuHasAvx2()) return NoiseIsa::kAvx2;
#endif
  return NoiseIsa::kScalar;
}

size_t SensorNoiseTransform(NoiseIsa isa, const double* u1, const double* u2,
                            size_t pairs, float* noise) {
  OTIF_CHECK(isa <= SensorNoiseIsa())
      << "this build or CPU lacks the instruction set of noise variant "
      << static_cast<int>(isa);
#ifdef OTIF_NOISE_X86
  if (isa == NoiseIsa::kAvx512) {
    return SensorNoiseAvx512(u1, u2, pairs, noise);
  }
  if (isa == NoiseIsa::kAvx2) return SensorNoiseAvx2(u1, u2, pairs, noise);
#endif
  for (size_t k = 0; k < pairs; ++k) {
    NoisePairExact(u1[k], u2[k], noise + 2 * k);
  }
  return 0;
}

size_t AddSensorNoise(NoiseIsa isa, uint64_t seed, float* pixels,
                      size_t count) {
  Rng rng(seed);
  double u1[kNoiseChunkPairs];
  double u2[kNoiseChunkPairs];
  float noise[2 * kNoiseChunkPairs];
  size_t exact = 0;
  for (size_t done = 0; done < count;) {
    const size_t values = std::min(count - done, 2 * kNoiseChunkPairs);
    const size_t pairs = (values + 1) / 2;
    for (size_t k = 0; k < pairs; ++k) {
      // Rng::Gaussian's draws, in its order: u1 (redrawn while it is
      // <= 1e-300, so log(u1) stays finite), then u2.
      double draw = 0.0;
      while (draw <= 1e-300) draw = rng.NextDouble();
      u1[k] = draw;
      u2[k] = rng.NextDouble();
    }
    exact += SensorNoiseTransform(isa, u1, u2, pairs, noise);
    // An odd count leaves the last pair's sine term unused.
    for (size_t i = 0; i < values; ++i) pixels[done + i] += noise[i];
    done += values;
  }
  return exact;
}

Rasterizer::Rasterizer(const Clip* clip) : clip_(clip) {
  OTIF_CHECK(clip != nullptr);
}

video::Image Rasterizer::BuildBackground(int width, int height) const {
  const DatasetSpec& spec = clip_->spec();
  video::Image bg(width, height);
  const double amp = 0.08 * spec.background_complexity;
  const double kx = 2.0 * M_PI * 3.0 / width;
  const double ky = 2.0 * M_PI * 2.0 / height;
  for (int y = 0; y < height; ++y) {
    float* row = bg.row(y);
    for (int x = 0; x < width; ++x) {
      double v = 0.42 + amp * std::sin(kx * x + 0.7) * std::cos(ky * y) +
                 0.06 * spec.background_complexity *
                     (HashNoise(spec.seed, x, y) - 0.5);
      row[x] = static_cast<float>(v);
    }
  }
  // Darker road bands along each spawn path: union of discs along the path
  // forms a mask, darkened once (overlapping discs must not compound).
  const double sx = static_cast<double>(width) / spec.width;
  const double sy = static_cast<double>(height) / spec.height;
  std::vector<uint8_t> road_mask(static_cast<size_t>(width) * height, 0);
  for (const SpawnPath& path : spec.paths) {
    const double length = geom::PolylineLength(path.waypoints);
    if (length <= 0) continue;
    const int steps = std::max(8, static_cast<int>(length * sx / 2));
    for (int s = 0; s <= steps; ++s) {
      const double u = static_cast<double>(s) / steps;
      const geom::Point p = geom::PointAlong(path.waypoints, u);
      const double scale = path.scale_at_start +
                           u * (path.scale_at_end - path.scale_at_start);
      const double radius_out =
          std::max(1.0, path.size_mean_px * scale * 0.9 * sx);
      const int cx = static_cast<int>(p.x * sx);
      const int cy = static_cast<int>(p.y * sy);
      const int r = static_cast<int>(radius_out);
      for (int y = cy - r; y <= cy + r; ++y) {
        for (int x = cx - r; x <= cx + r; ++x) {
          if (!bg.InBounds(x, y)) continue;
          road_mask[static_cast<size_t>(y) * width + x] = 1;
        }
      }
    }
  }
  for (int y = 0; y < height; ++y) {
    float* row = bg.row(y);
    for (int x = 0; x < width; ++x) {
      if (road_mask[static_cast<size_t>(y) * width + x]) row[x] *= 0.78f;
    }
  }
  bg.Clamp();
  return bg;
}

const video::Image& Rasterizer::Background(int width, int height) {
  OTIF_CHECK_GT(width, 0);
  OTIF_CHECK_GT(height, 0);
  // Map entries are never erased, so the returned reference stays valid
  // after the lock drops even while other threads insert new resolutions.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = background_cache_.find({width, height});
  if (it == background_cache_.end()) {
    it = background_cache_
             .emplace(std::make_pair(width, height),
                      BuildBackground(width, height))
             .first;
  }
  return it->second;
}

video::Image Rasterizer::Render(int frame, int width, int height) {
  video::Image img;
  RenderInto(frame, width, height, &img);
  return img;
}

void Rasterizer::RenderInto(int frame, int width, int height,
                            video::Image* out) {
  const DatasetSpec& spec = clip_->spec();
  // Copy-assignment reuses out's pixel buffer when the capacity fits.
  video::Image& img = *out;
  img = Background(width, height);
  const double sx = static_cast<double>(width) / spec.width;
  const double sy = static_cast<double>(height) / spec.height;

  // Moving camera: shift the background sample position by the offset.
  if (spec.moving_camera) {
    const geom::Point cam = clip_->CameraOffset(frame);
    const video::Image& bg = Background(width, height);
    const int dx = static_cast<int>(std::lround(cam.x * sx));
    const int dy = static_cast<int>(std::lround(cam.y * sy));
    for (int y = 0; y < height; ++y) {
      float* row = img.row(y);
      const int syy = std::clamp(y + dy, 0, height - 1);
      const float* brow = bg.row(syy);
      for (int x = 0; x < width; ++x) {
        row[x] = brow[std::clamp(x + dx, 0, width - 1)];
      }
    }
  }

  // Draw objects back-to-front by apparent size (small/far first).
  std::vector<VisibleObject> draw = clip_->VisibleAt(frame);
  std::sort(draw.begin(), draw.end(), [&](const VisibleObject& a,
                                          const VisibleObject& b) {
    const auto& sa =
        clip_->objects()[static_cast<size_t>(a.object_index)]
            .states[static_cast<size_t>(a.state_index)];
    const auto& sb =
        clip_->objects()[static_cast<size_t>(b.object_index)]
            .states[static_cast<size_t>(b.state_index)];
    return sa.box.Area() < sb.box.Area();
  });
  for (const VisibleObject& vis : draw) {
    const GtObject& obj =
        clip_->objects()[static_cast<size_t>(vis.object_index)];
    const ObjectFrameState& st =
        obj.states[static_cast<size_t>(vis.state_index)];
    const float base = ObjectIntensity(obj.id);
    const int x0 = std::max(0, static_cast<int>(st.box.Left() * sx));
    const int x1 =
        std::min(width - 1, static_cast<int>(st.box.Right() * sx));
    const int y0 = std::max(0, static_cast<int>(st.box.Top() * sy));
    const int y1 =
        std::min(height - 1, static_cast<int>(st.box.Bottom() * sy));
    for (int y = y0; y <= y1; ++y) {
      float* row = img.row(y);
      for (int x = x0; x <= x1; ++x) {
        // Simple shading: brighter toward the top of the box.
        const double fy = (y1 > y0)
                              ? static_cast<double>(y - y0) / (y1 - y0)
                              : 0.0;
        row[x] = base * static_cast<float>(1.0 - 0.25 * fy) +
                 0.02f * static_cast<float>(
                             HashNoise(obj.id + 77, x, y) - 0.5);
      }
    }
  }

  // Per-frame sensor noise, deterministic in (clip seed, frame).
  AddSensorNoise(SensorNoiseIsa(),
                 clip_->clip_seed() * 1315423911ULL +
                     static_cast<uint64_t>(frame),
                 img.data(), img.size());
  img.Clamp();
}

}  // namespace otif::sim
