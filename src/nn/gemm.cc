#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

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

// Full kMr x kNr register tile over the complete k range. Each accumulator
// starts at C's current value when kAccumulate, else at its column's
// init_col entry when init_col is non-null, else at its row's init.
template <bool kAccumulate>
inline void MicroKernel(int k, int n, const float* a0, const float* a1,
                        const float* a2, const float* a3, const float* b,
                        float init0, float init1, float init2, float init3,
                        const float* init_col, float* c0, float* c1,
                        float* c2, float* c3) {
  float acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
  if (!kAccumulate && init_col != nullptr) {
    for (int j = 0; j < kNr; ++j) {
      acc0[j] = acc1[j] = acc2[j] = acc3[j] = init_col[j];
    }
  } else {
    for (int j = 0; j < kNr; ++j) {
      acc0[j] = kAccumulate ? c0[j] : init0;
      acc1[j] = kAccumulate ? c1[j] : init1;
      acc2[j] = kAccumulate ? c2[j] : init2;
      acc3[j] = kAccumulate ? c3[j] : init3;
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
                       const float* b, const float* bias_row,
                       const float* bias_col, int i0, int j0, float* c) {
  float acc[kMr][kNr];
  for (int i = 0; i < mb; ++i) {
    const float* crow = c + static_cast<size_t>(i0 + i) * n + j0;
    const float init = bias_row != nullptr ? bias_row[i0 + i] : 0.0f;
    for (int j = 0; j < nb; ++j) {
      acc[i][j] = kAccumulate           ? crow[j]
                  : bias_col != nullptr ? bias_col[j0 + j]
                                        : init;
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

// Shared loop nest of GemmBias and GemmAccumulate (no bias; chains start
// from C).
template <bool kAccumulate>
void Gemm(int m, int n, int k, const float* a, const float* b,
          const float* bias_row, const float* bias_col, float* c) {
  // Column panels: for each strip of B, stream all rows of A over it.
  for (int jc = 0; jc < n; jc += kNc) {
    const int nc = std::min(kNc, n - jc);
    int i = 0;
    for (; i + kMr <= m; i += kMr) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      const float init0 = bias_row != nullptr ? bias_row[i] : 0.0f;
      const float init1 = bias_row != nullptr ? bias_row[i + 1] : 0.0f;
      const float init2 = bias_row != nullptr ? bias_row[i + 2] : 0.0f;
      const float init3 = bias_row != nullptr ? bias_row[i + 3] : 0.0f;
      int j = 0;
      for (; j + kNr <= nc; j += kNr) {
        float* crow = c + static_cast<size_t>(i) * n + jc + j;
        MicroKernel<kAccumulate>(
            k, n, a0, a1, a2, a3, b + jc + j, init0, init1, init2, init3,
            bias_col != nullptr ? bias_col + jc + j : nullptr, crow,
            crow + n, crow + 2 * n, crow + 3 * n);
      }
      for (; j < nc; j += kNr) {
        EdgeKernel<kAccumulate>(k, n, kMr, std::min(kNr, nc - j), a, b,
                                bias_row, bias_col, i, jc + j, c);
      }
    }
    if (i < m) {
      for (int j = 0; j < nc; j += kNr) {
        EdgeKernel<kAccumulate>(k, n, m - i, std::min(kNr, nc - j), a, b,
                                bias_row, bias_col, i, jc + j, c);
      }
    }
  }
}

}  // namespace

void GemmBias(int m, int n, int k, const float* a, const float* b,
              const float* bias_row, const float* bias_col, float* c) {
  Gemm</*kAccumulate=*/false>(m, n, k, a, b, bias_row, bias_col, c);
}

void GemmAccumulate(int m, int n, int k, const float* a, const float* b,
                    float* c) {
  Gemm</*kAccumulate=*/true>(m, n, k, a, b, nullptr, nullptr, c);
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
