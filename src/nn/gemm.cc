#include "nn/gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "util/cpu.h"
#include "util/logging.h"

namespace otif::nn {
namespace {

// Register-blocking factors. kMr rows of A are streamed against kNr-wide
// column strips of B; the kMr x kNr accumulator block lives in registers
// and the kNr-wide inner loops auto-vectorize (no reduction across lanes,
// so vectorization cannot reorder the per-output k chain).
constexpr int kMr = 4;
constexpr int kNr = 16;

// Column blocking: B strips of this many columns stay resident in L1/L2
// while every row of A streams over them.
constexpr int kNc = 512;

}  // namespace

// The kernels have external linkage so that profiles (dladdr) name them;
// the compiler keeps them out of line. (A clone it specializes for
// constant arguments is a local symbol again, which dladdr cannot name.)

// Full kMr x kNr register tile over the complete k range. Each accumulator
// starts at C's current value when kAccumulate, else at its column's
// init_col entry when init_col is non-null, else at 0.
template <bool kAccumulate>
inline void MicroKernel(int k, int n, const float* a0, const float* a1,
                        const float* a2, const float* a3, const float* b,
                        const float* init_col, float* c0, float* c1,
                        float* c2, float* c3) {
  float acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
  if (!kAccumulate && init_col != nullptr) {
    for (int j = 0; j < kNr; ++j) {
      acc0[j] = acc1[j] = acc2[j] = acc3[j] = init_col[j];
    }
  } else {
    for (int j = 0; j < kNr; ++j) {
      acc0[j] = kAccumulate ? c0[j] : 0.0f;
      acc1[j] = kAccumulate ? c1[j] : 0.0f;
      acc2[j] = kAccumulate ? c2[j] : 0.0f;
      acc3[j] = kAccumulate ? c3[j] : 0.0f;
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n;
    const float va0 = a0[p], va1 = a1[p], va2 = a2[p], va3 = a3[p];
    for (int j = 0; j < kNr; ++j) {
      acc0[j] += va0 * brow[j];
      acc1[j] += va1 * brow[j];
      acc2[j] += va2 * brow[j];
      acc3[j] += va3 * brow[j];
    }
  }
  for (int j = 0; j < kNr; ++j) {
    c0[j] = acc0[j];
    c1[j] = acc1[j];
    c2[j] = acc2[j];
    c3[j] = acc3[j];
  }
}

// Edge tile: any mb x nb block (mb <= kMr, nb <= kNr). Same per-output
// ascending-k accumulator chain as the full tile.
template <bool kAccumulate>
inline void EdgeKernel(int k, int n, int mb, int nb, const float* a,
                       const float* b, const float* bias_col, int i0, int j0,
                       float* c) {
  float acc[kMr][kNr];
  for (int i = 0; i < mb; ++i) {
    const float* crow = c + static_cast<size_t>(i0 + i) * n + j0;
    for (int j = 0; j < nb; ++j) {
      acc[i][j] = kAccumulate           ? crow[j]
                  : bias_col != nullptr ? bias_col[j0 + j]
                                        : 0.0f;
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<size_t>(p) * n + j0;
    for (int i = 0; i < mb; ++i) {
      const float va = a[static_cast<size_t>(i0 + i) * k + p];
      for (int j = 0; j < nb; ++j) acc[i][j] += va * brow[j];
    }
  }
  for (int i = 0; i < mb; ++i) {
    float* crow = c + static_cast<size_t>(i0 + i) * n + j0;
    for (int j = 0; j < nb; ++j) crow[j] = acc[i][j];
  }
}

namespace {

// Shared loop nest of GemmBias and GemmAccumulate (no bias; chains start
// from C).
template <bool kAccumulate>
void Gemm(int m, int n, int k, const float* a, const float* b,
          const float* bias_col, float* c) {
  // Column panels: for each strip of B, stream all rows of A over it.
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    int i = 0;
    for (; i + kMr <= m; i += kMr) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      int j = 0;
      for (; j + kNr <= nc; j += kNr) {
        float* crow = c + static_cast<size_t>(i) * n + jc + j;
        MicroKernel<kAccumulate>(
            k, n, a0, a1, a2, a3, b + jc + j,
            bias_col != nullptr ? bias_col + jc + j : nullptr, crow,
            crow + n, crow + 2 * n, crow + 3 * n);
      }
      for (; j < nc; j += kNr) {
        EdgeKernel<kAccumulate>(k, n, kMr, std::min(kNr, nc - j), a, b,
                                bias_col, i, jc + j, c);
      }
    }
    if (i < m) {
      for (int j = 0; j < nc; j += kNr) {
        EdgeKernel<kAccumulate>(k, n, m - i, std::min(kNr, nc - j), a, b,
                                bias_col, i, jc + j, c);
      }
    }
  }
}

}  // namespace

void GemmBias(int m, int n, int k, const float* a, const float* b,
              const float* bias_col, float* c) {
  Gemm</*kAccumulate=*/false>(m, n, k, a, b, bias_col, c);
}

void GemmAccumulate(int m, int n, int k, const float* a, const float* b,
                    float* c) {
  Gemm</*kAccumulate=*/true>(m, n, k, a, b, nullptr, c);
}

namespace {

// ConvDirect's register tile: kConvChans output channels x kConvCols
// output columns. Its vectors are the widest the variant's instruction set
// has: a channel's 8 columns are two Float4s (SSE) in the baseline build and
// one Float8 (AVX) in the AVX2 build, so every accumulator stays in a
// register.
constexpr int kConvChans = 4;
constexpr int kConvCols = 8;
typedef float Float4 __attribute__((vector_size(4 * sizeof(float))));
typedef float Float8 __attribute__((vector_size(8 * sizeof(float))));

// One input channel's tap offsets fit on the stack up to a 7x7 kernel.
constexpr int kStackTaps = 49;

// Scratch layout: per input channel, `stride` phase planes of rows x cols
// floats. Row r holds input row r - pad; phase p's column t holds input
// column p + stride*t - pad; zeros stand in for the padding. Tap (ky, kx)
// of output (oy, ox) then reads phase kx % stride, row oy*stride + ky,
// column ox + kx / stride, so a tile's 8 columns read 8 adjacent floats.
// Each plane is wide enough for a whole tile past the last output column.
struct PhasePlanes {
  int pad = 0, oh = 0, ow = 0, rows = 0, cols = 0;
  size_t floats = 0;  // One phase plane: rows * cols.
};

PhasePlanes Layout(const ConvShape& s) {
  PhasePlanes g;
  g.pad = s.kernel / 2;
  g.oh = s.oh();
  g.ow = s.ow();
  g.rows = (g.oh - 1) * s.stride + s.kernel;
  g.cols = (g.ow + kConvCols - 1) / kConvCols * kConvCols +
           (s.kernel - 1) / s.stride;
  g.floats = static_cast<size_t>(g.rows) * g.cols;
  return g;
}

// dst[t] = src[stride * t] for t < n. The proxy's strides (1 and 2) are
// compile-time constants here, so their copies vectorize.
template <int kStride>
void CopyStrided(const float* src, int stride, int n, float* dst) {
  const int st = kStride > 0 ? kStride : stride;
  for (int t = 0; t < n; ++t) dst[t] = src[st * t];
}

// Zeroes the planes, then copies every input sample that some tap reads
// once, into its phase. (With a stride above the kernel size, the last
// input rows and columns can lie past every tap.)
void FillPhasePlanes(const ConvShape& s, const PhasePlanes& g,
                     const float* input, float* planes) {
  const int st = s.stride;
  std::fill_n(planes, static_cast<size_t>(s.in_channels) * st * g.floats,
              0.0f);
  const int rows = std::min(s.h, g.rows - g.pad);  // Input rows read.
  for (int ic = 0; ic < s.in_channels; ++ic) {
    const float* channel = input + static_cast<size_t>(ic) * s.h * s.w;
    for (int ph = 0; ph < st; ++ph) {
      // Columns t whose input column ph + st*t - pad lies in [0, w).
      const int first = g.pad - ph;           // Smallest st*t.
      const int last = s.w - 1 + g.pad - ph;  // Largest st*t.
      const int t_lo = first <= 0 ? 0 : (first + st - 1) / st;
      const int t_hi = std::min(last < 0 ? 0 : last / st + 1, g.cols);
      const int n = t_hi - t_lo;
      if (n <= 0) continue;
      const int x0 = ph + st * t_lo - g.pad;  // Input column of t_lo.
      float* plane = planes + (static_cast<size_t>(ic) * st + ph) * g.floats;
      for (int iy = 0; iy < rows; ++iy) {
        const float* src = channel + static_cast<size_t>(iy) * s.w + x0;
        float* dst = plane + static_cast<size_t>(iy + g.pad) * g.cols + t_lo;
        switch (st) {
          case 1:
            CopyStrided<1>(src, st, n, dst);
            break;
          case 2:
            CopyStrided<2>(src, st, n, dst);
            break;
          default:
            CopyStrided<0>(src, st, n, dst);
            break;
        }
      }
    }
  }
}

// Where one input channel's taps (ky, kx), in order, sit relative to a
// tile's first read in that channel's phase planes.
void TapOffsets(const ConvShape& s, const PhasePlanes& g, size_t* offsets) {
  for (int ky = 0; ky < s.kernel; ++ky) {
    for (int kx = 0; kx < s.kernel; ++kx) {
      *offsets++ = static_cast<size_t>(kx % s.stride) * g.floats +
                   static_cast<size_t>(ky) * g.cols + kx / s.stride;
    }
  }
}

// One register tile: output channels oc0 .. oc0 + kChans - 1, row oy,
// columns ox0 .. ox0 + 7 (those below ow are stored). Each accumulator
// starts at its channel's bias and adds the taps (ic, ky, kx) in ascending
// order, a rounded product at a time.
template <typename Vec, int kChans>
[[gnu::always_inline]] inline void ConvTile(
    const ConvShape& s, const PhasePlanes& g, const float* planes,
    const size_t* tap_offsets, const float* weight, const float* bias,
    int oc0, int oy, int ox0, float* out) {
  constexpr int kLanes = sizeof(Vec) / sizeof(float);
  constexpr int kVecs = kConvCols / kLanes;
  const int channel_taps = s.kernel * s.kernel;
  const size_t taps = static_cast<size_t>(s.in_channels) * channel_taps;
  Vec acc[kChans][kVecs];
  for (int c = 0; c < kChans; ++c) {
    for (int v = 0; v < kVecs; ++v) {
      for (int l = 0; l < kLanes; ++l) acc[c][v][l] = bias[oc0 + c];
    }
  }
  const float* w = weight + static_cast<size_t>(oc0) * taps;
  const float* window =
      planes + static_cast<size_t>(oy) * s.stride * g.cols + ox0;
  for (int ic = 0; ic < s.in_channels; ++ic, window += s.stride * g.floats) {
    for (int j = 0; j < channel_taps; ++j, ++w) {
      Vec x[kVecs];
      for (int v = 0; v < kVecs; ++v) {
        std::memcpy(&x[v], window + tap_offsets[j] + v * kLanes, sizeof(Vec));
      }
      for (int c = 0; c < kChans; ++c) {
        const float wc = w[c * taps];
        for (int v = 0; v < kVecs; ++v) acc[c][v] += wc * x[v];
      }
    }
  }
  const int n = std::min(kConvCols, g.ow - ox0);
  for (int c = 0; c < kChans; ++c) {
    float* dst = out + (static_cast<size_t>(oc0 + c) * g.oh + oy) * g.ow + ox0;
    if (n == kConvCols) {
      std::memcpy(dst, acc[c], sizeof(acc[c]));
    } else {
      for (int j = 0; j < n; ++j) dst[j] = acc[c][j / kLanes][j % kLanes];
    }
  }
}

// The one kernel source, inlined into each instruction-set variant below
// with that variant's vector type.
template <typename Vec>
[[gnu::always_inline]] inline void ConvDirectBody(const ConvShape& s,
                                                  const float* input,
                                                  const float* weight,
                                                  const float* bias,
                                                  float* scratch, float* out) {
  const PhasePlanes g = Layout(s);
  FillPhasePlanes(s, g, input, scratch);
  const int channel_taps = s.kernel * s.kernel;
  std::array<size_t, kStackTaps> stack_offsets{};
  std::vector<size_t> heap_offsets(
      channel_taps > kStackTaps ? channel_taps : 0);
  size_t* offsets = channel_taps > kStackTaps ? heap_offsets.data()
                                              : stack_offsets.data();
  TapOffsets(s, g, offsets);
  for (int oy = 0; oy < g.oh; ++oy) {
    for (int ox0 = 0; ox0 < g.ow; ox0 += kConvCols) {
      int oc = 0;
      for (; oc + kConvChans <= s.out_channels; oc += kConvChans) {
        ConvTile<Vec, kConvChans>(s, g, scratch, offsets, weight, bias, oc,
                                  oy, ox0, out);
      }
      if (s.out_channels - oc >= 2) {
        ConvTile<Vec, 2>(s, g, scratch, offsets, weight, bias, oc, oy, ox0,
                         out);
        oc += 2;
      }
      if (oc < s.out_channels) {
        ConvTile<Vec, 1>(s, g, scratch, offsets, weight, bias, oc, oy, ox0,
                         out);
      }
    }
  }
}

}  // namespace

// The variants have external linkage so that profiles (dladdr) name the
// one that ran.
void ConvDirectBaseline(const ConvShape& s, const float* input,
                        const float* weight, const float* bias,
                        float* scratch, float* out) {
  ConvDirectBody<Float4>(s, input, weight, bias, scratch, out);
}

#if defined(__x86_64__) || defined(__i386__)
#define OTIF_CONV_AVX2 1
// AVX2 alone, not FMA: a fused multiply-add rounds once where the chain
// rounds twice, which would change outputs.
__attribute__((target("avx2"))) void ConvDirectAvx2(
    const ConvShape& s, const float* input, const float* weight,
    const float* bias, float* scratch, float* out) {
  ConvDirectBody<Float8>(s, input, weight, bias, scratch, out);
}
#endif

size_t ConvDirectScratchFloats(const ConvShape& shape) {
  if (shape.oh() <= 0 || shape.ow() <= 0) return 0;
  return static_cast<size_t>(shape.in_channels) * shape.stride *
         Layout(shape).floats;
}

ConvIsa ConvDirectIsa() {
#ifdef OTIF_CONV_AVX2
  if (CpuHasAvx2()) return ConvIsa::kAvx2;
#endif
  return ConvIsa::kBaseline;
}

void ConvDirectWith(ConvIsa isa, const ConvShape& shape, const float* input,
                    const float* weight, const float* bias, float* scratch,
                    float* out) {
  if (shape.oh() <= 0 || shape.ow() <= 0) return;
  if (isa == ConvIsa::kAvx2) {
    OTIF_CHECK(ConvDirectIsa() == ConvIsa::kAvx2)
        << "the AVX2 conv kernel needs a CPU with AVX2";
#ifdef OTIF_CONV_AVX2
    ConvDirectAvx2(shape, input, weight, bias, scratch, out);
#endif
    return;
  }
  ConvDirectBaseline(shape, input, weight, bias, scratch, out);
}

void ConvDirect(const ConvShape& shape, const float* input,
                const float* weight, const float* bias, float* scratch,
                float* out) {
  ConvDirectWith(ConvDirectIsa(), shape, input, weight, bias, scratch, out);
}

void Im2Col(const float* input, int channels, int h, int w, int kernel,
            int stride, int oh, int ow, float* out) {
  const int pad = kernel / 2;
  const size_t row_len = static_cast<size_t>(oh) * ow;
  float* dst = out;
  for (int ic = 0; ic < channels; ++ic) {
    const float* plane = input + static_cast<size_t>(ic) * h * w;
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        // Row for tap (ic, ky, kx): sample (oy*stride - pad + ky,
        // ox*stride - pad + kx) for every output position.
        float* row = dst;
        dst += row_len;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          float* out_row = row + static_cast<size_t>(oy) * ow;
          if (iy < 0 || iy >= h) {
            std::memset(out_row, 0, sizeof(float) * static_cast<size_t>(ow));
            continue;
          }
          const int x_off = kx - pad;  // ix = ox*stride + x_off.
          const float* in_row = plane + static_cast<size_t>(iy) * w;
          // ox range with in-bounds ix: ceil((-x_off)/stride) <= ox and
          // ox*stride + x_off < w.
          int ox_lo = x_off >= 0 ? 0 : (-x_off + stride - 1) / stride;
          int ox_hi = (w - 1 - x_off) / stride + 1;  // Exclusive.
          ox_lo = std::min(ox_lo, ow);
          ox_hi = std::clamp(ox_hi, ox_lo, ow);
          for (int ox = 0; ox < ox_lo; ++ox) out_row[ox] = 0.0f;
          if (stride == 1) {
            std::memcpy(out_row + ox_lo, in_row + ox_lo + x_off,
                        sizeof(float) * static_cast<size_t>(ox_hi - ox_lo));
          } else {
            for (int ox = ox_lo; ox < ox_hi; ++ox) {
              out_row[ox] = in_row[ox * stride + x_off];
            }
          }
          for (int ox = ox_hi; ox < ow; ++ox) out_row[ox] = 0.0f;
        }
      }
    }
  }
}

}  // namespace otif::nn
