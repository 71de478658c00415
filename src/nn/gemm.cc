#include "nn/gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>
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

// ConvDirect's register tile: kConvChains accumulator vectors, each a run
// of output columns of one (channel, row). Each tap adds into all of them
// at once, and they are independent chains, so the adds overlap instead
// of waiting on each other's latency. A tile spans up to kConvChans
// output channels; rows make up the rest (RowsPerTile). Its vectors are
// the widest the variant's instruction set has: 16 floats (AVX-512), 8
// (AVX) or 4 (SSE, two per tile row so that a row spans 8 columns).
constexpr int kConvChans = 4;
constexpr int kConvChains = 8;
typedef float Float4 __attribute__((vector_size(4 * sizeof(float))));
typedef float Float8 __attribute__((vector_size(8 * sizeof(float))));
typedef float Float16 __attribute__((vector_size(16 * sizeof(float))));
// The helpers below take and return these vectors by value. They are all
// inlined into the variant that uses them, so no call crosses the
// baseline ABI that GCC warns would change under AVX.
#pragma GCC diagnostic ignored "-Wpsabi"

// Output columns per tile row: one vector, or two 4-float ones.
template <typename Vec>
constexpr int TileCols() {
  return sizeof(Vec) / sizeof(float) < 8 ? 8 : sizeof(Vec) / sizeof(float);
}

// The widest tile row any variant computes; the planes are laid out for
// it, so their size does not depend on the variant.
constexpr int kMaxTileCols = 16;

// Rows per tile of kChans channels: enough for kConvChains chains.
template <typename Vec, int kChans>
constexpr int RowsPerTile() {
  return kConvChains / (kChans * (TileCols<Vec>() * sizeof(float) /
                                  sizeof(Vec)));
}

// One input channel's tap offsets fit on the stack up to a 7x7 kernel.
constexpr int kStackTaps = 49;

// Scratch layout: per input channel, `stride` phase planes of rows x cols
// floats. Row r holds input row r - pad; phase p's column t holds input
// column p + stride*t - pad; zeros stand in for the padding. Tap (ky, kx)
// of output (oy, ox) then reads phase kx % stride, row oy*stride + ky,
// column ox + kx / stride, so a tile row's columns read adjacent floats.
// Each plane is wide enough for a whole tile row past the last output
// column.
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
  g.cols = (g.ow + kMaxTileCols - 1) / kMaxTileCols * kMaxTileCols +
           (s.kernel - 1) / s.stride;
  g.floats = static_cast<size_t>(g.rows) * g.cols;
  return g;
}

template <ConvInputMap kMap>
[[gnu::always_inline]] inline float MapInput(float x) {
  if constexpr (kMap == ConvInputMap::kRelu) {
    return std::max(0.0f, x);
  } else if constexpr (kMap == ConvInputMap::kCenter) {
    return x - 0.5f;
  } else {
    return x;
  }
}

// MapInput on 8 samples at once, lane by lane the same operation: the
// vector select (x > 0 ? x : 0) is std::max(0.0f, x) (which returns its
// first argument unless 0 < x), -0 and NaN included.
template <ConvInputMap kMap>
[[gnu::always_inline]] inline Float8 MapInput(Float8 x) {
  if constexpr (kMap == ConvInputMap::kRelu) {
    const Float8 zero = {};
    return x > zero ? x : zero;
  } else if constexpr (kMap == ConvInputMap::kCenter) {
    return x - 0.5f;
  } else {
    return x;
  }
}

// The fill moves 8 floats per vector in every variant (two SSE registers
// in the baseline build): plane rows are short, so a wider vector would
// leave most rows to the scalar tail.
constexpr int kFillLanes = 8;

// Unaligned vector loads and stores.
template <typename Vec>
[[gnu::always_inline]] inline Vec LoadVec(const float* src) {
  Vec v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

template <typename Vec>
[[gnu::always_inline]] inline void StoreVec(float* dst, Vec v) {
  std::memcpy(dst, &v, sizeof(v));
}

// dst[t] = map(src[t]) for t < n. Whole vectors; a ragged end redoes the
// last 8 (the same values), so only rows under 8 floats run scalar.
template <ConvInputMap kMap>
[[gnu::always_inline]] inline void CopyMapped(const float* src, int n,
                                              float* dst) {
  if (n < kFillLanes) {
    for (int t = 0; t < n; ++t) dst[t] = MapInput<kMap>(src[t]);
    return;
  }
  for (int t = 0;; t += kFillLanes) {
    if (t > n - kFillLanes) t = n - kFillLanes;
    StoreVec(dst + t, MapInput<kMap>(LoadVec<Float8>(src + t)));
    if (t == n - kFillLanes) return;
  }
}

// Stride 2: dst0[u] = map(src[2u]) and dst1[u] = map(src[2u + 1]) for
// u < pairs, one pass over the input row that splits its samples between
// the two phases with vector shuffles. A ragged end redoes the last 8
// pairs, as CopyMapped does.
template <ConvInputMap kMap>
[[gnu::always_inline]] inline void SplitMapped(const float* src, int pairs,
                                               float* dst0, float* dst1) {
  if (pairs < kFillLanes) {
    for (int u = 0; u < pairs; ++u) {
      dst0[u] = MapInput<kMap>(src[2 * u]);
      dst1[u] = MapInput<kMap>(src[2 * u + 1]);
    }
    return;
  }
  for (int u = 0;; u += kFillLanes) {
    if (u > pairs - kFillLanes) u = pairs - kFillLanes;
    const Float8 a = LoadVec<Float8>(src + 2 * u);
    const Float8 b = LoadVec<Float8>(src + 2 * u + kFillLanes);
    StoreVec(dst0 + u, MapInput<kMap>(__builtin_shufflevector(
                           a, b, 0, 2, 4, 6, 8, 10, 12, 14)));
    StoreVec(dst1 + u, MapInput<kMap>(__builtin_shufflevector(
                           a, b, 1, 3, 5, 7, 9, 11, 13, 15)));
    if (u == pairs - kFillLanes) return;
  }
}

// Which plane columns of phase `ph` hold input samples: [t_lo, t_hi), the
// columns t whose input column ph + stride*t - pad lies in [0, w), up to
// the plane's width. (With a stride above the kernel size, the last input
// rows and columns can lie past every tap.) Empty when t_lo == t_hi.
struct PhaseColumns {
  int t_lo = 0, t_hi = 0;
};

PhaseColumns ColumnsOf(const ConvShape& s, const PhasePlanes& g, int ph) {
  const int st = s.stride;
  const int first = g.pad - ph;           // Smallest st*t.
  const int last = s.w - 1 + g.pad - ph;  // Largest st*t.
  PhaseColumns c;
  c.t_lo = first <= 0 ? 0 : (first + st - 1) / st;
  c.t_hi = std::min(last < 0 ? 0 : last / st + 1, g.cols);
  if (c.t_hi <= c.t_lo) c = PhaseColumns{};
  return c;
}

// Zeroes each channel's planes in one pass, then writes every input sample
// that some tap reads, mapped, into its phase. (Zeroing only the padding,
// row by row, measured slower at the proxy's row widths than one memset
// per channel whose lines the samples then overwrite in cache.)
template <ConvInputMap kMap>
[[gnu::always_inline]] inline void FillPhasePlanes(const ConvShape& s,
                                                   const PhasePlanes& g,
                                                   const float* input,
                                                   float* planes) {
  const int st = s.stride;
  const int rows = std::min(s.h, g.rows - g.pad);  // Input rows read.
  PhaseColumns cols[2];
  // Stride 2 over an even width: each phase takes every other sample of a
  // row (sample x goes to phase (x + pad) % 2, column (x + pad) / 2), so
  // one pass splits the row when neither phase is cut short by the plane
  // width.
  bool split = false;
  if (st == 2) {
    cols[0] = ColumnsOf(s, g, 0);
    cols[1] = ColumnsOf(s, g, 1);
    split = s.w % 2 == 0 && cols[0].t_hi - cols[0].t_lo == s.w / 2 &&
            cols[1].t_hi - cols[1].t_lo == s.w / 2;
  }
  for (int ic = 0; ic < s.in_channels; ++ic) {
    const float* channel = input + static_cast<size_t>(ic) * s.h * s.w;
    float* channel_planes = planes + static_cast<size_t>(ic) * st * g.floats;
    std::fill_n(channel_planes, static_cast<size_t>(st) * g.floats, 0.0f);
    if (split) {
      // The even samples x = 2u go to phase pad % 2, the odd ones to the
      // other phase.
      const int even = g.pad % 2;
      float* p_even = channel_planes + static_cast<size_t>(even) * g.floats +
                      static_cast<size_t>(g.pad) * g.cols + cols[even].t_lo;
      float* p_odd = channel_planes +
                     static_cast<size_t>(1 - even) * g.floats +
                     static_cast<size_t>(g.pad) * g.cols + cols[1 - even].t_lo;
      for (int iy = 0; iy < rows; ++iy) {
        const size_t row = static_cast<size_t>(iy) * g.cols;
        SplitMapped<kMap>(channel + static_cast<size_t>(iy) * s.w, s.w / 2,
                          p_even + row, p_odd + row);
      }
      continue;
    }
    for (int ph = 0; ph < st; ++ph) {
      const PhaseColumns c = ColumnsOf(s, g, ph);
      const int n = c.t_hi - c.t_lo;
      if (n == 0) continue;
      const int x0 = ph + st * c.t_lo - g.pad;  // Input column of t_lo.
      float* plane = channel_planes + static_cast<size_t>(ph) * g.floats +
                     static_cast<size_t>(g.pad) * g.cols + c.t_lo;
      for (int iy = 0; iy < rows; ++iy) {
        const float* src = channel + static_cast<size_t>(iy) * s.w + x0;
        float* dst = plane + static_cast<size_t>(iy) * g.cols;
        if (st == 1) {
          CopyMapped<kMap>(src, n, dst);
        } else {
          for (int t = 0; t < n; ++t) dst[t] = MapInput<kMap>(src[st * t]);
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

// What every tile of one ConvDirect call reads.
struct ConvArgs {
  const ConvShape& s;
  const PhasePlanes& g;
  const float* planes;
  const size_t* tap_offsets;
  const float* weight;
  const float* bias;
  float* out;
};

// One register tile: output channels oc0 .. oc0 + kChans - 1, rows oy0 ..
// oy0 + kRows - 1, columns ox0 .. ox0 + TileCols - 1 (those below ow are
// stored). Each accumulator starts at its channel's bias and adds the taps
// (ic, ky, kx) in ascending order, a rounded product at a time.
template <typename Vec, int kChans, int kRows>
[[gnu::always_inline]] inline void ConvTile(const ConvArgs& a, int oc0,
                                            int oy0, int ox0) {
  constexpr int kLanes = sizeof(Vec) / sizeof(float);
  constexpr int kCols = TileCols<Vec>();
  constexpr int kVecs = kCols / kLanes;
  const ConvShape& s = a.s;
  const PhasePlanes& g = a.g;
  const int channel_taps = s.kernel * s.kernel;
  const size_t taps = static_cast<size_t>(s.in_channels) * channel_taps;
  const size_t row_step = static_cast<size_t>(s.stride) * g.cols;
  Vec acc[kChans][kRows][kVecs];
#pragma GCC unroll 32
  for (int c = 0; c < kChans; ++c) {
    // Every lane the bias: b - (+0) is b for every b, -0 included.
    const Vec b = a.bias[oc0 + c] - Vec{};
#pragma GCC unroll 32
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 32
      for (int v = 0; v < kVecs; ++v) acc[c][r][v] = b;
    }
  }
  const float* w = a.weight + static_cast<size_t>(oc0) * taps;
  const float* window = a.planes + static_cast<size_t>(oy0) * row_step + ox0;
  for (int ic = 0; ic < s.in_channels; ++ic, window += s.stride * g.floats) {
    for (int j = 0; j < channel_taps; ++j, ++w) {
      const float* x = window + a.tap_offsets[j];
#pragma GCC unroll 32
      for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 32
        for (int v = 0; v < kVecs; ++v) {
          const Vec xv = LoadVec<Vec>(x + r * row_step + v * kLanes);
#pragma GCC unroll 32
          for (int c = 0; c < kChans; ++c) acc[c][r][v] += w[c * taps] * xv;
        }
      }
    }
  }
  const int n = std::min(kCols, g.ow - ox0);
#pragma GCC unroll 32
  for (int c = 0; c < kChans; ++c) {
#pragma GCC unroll 32
    for (int r = 0; r < kRows; ++r) {
      float* dst =
          a.out + (static_cast<size_t>(oc0 + c) * g.oh + oy0 + r) * g.ow + ox0;
      if (n == kCols) {  // A fixed-size copy: plain vector stores.
        std::memcpy(dst, acc[c][r], sizeof(acc[c][r]));
      } else {
        std::memcpy(dst, acc[c][r], static_cast<size_t>(n) * sizeof(float));
      }
    }
  }
}

// Half a Float16: the AVX-512 variant's tile for the last 8 columns or
// fewer of a row, so that a ragged end computes no more than 8 lanes.
template <typename Vec>
using HalfOf = std::conditional_t<sizeof(Vec) == sizeof(Float16), Float8, Vec>;

// Tiles of kChans channels for every channel group oc_begin, oc_begin +
// kChans, ... below oc_end, over the output rows from oy_begin: blocks of
// kRows rows, then what is left in blocks of half as many, down to one.
template <typename Vec, int kChans, int kRows>
[[gnu::always_inline]] inline void ConvTiles(const ConvArgs& a, int oc_begin,
                                             int oc_end, int oy_begin) {
  using Half = HalfOf<Vec>;
  int oy = oy_begin;
  for (; oy + kRows <= a.g.oh; oy += kRows) {
    int ox0 = 0;
    for (; a.g.ow - ox0 > TileCols<Half>(); ox0 += TileCols<Vec>()) {
      for (int oc = oc_begin; oc < oc_end; oc += kChans) {
        ConvTile<Vec, kChans, kRows>(a, oc, oy, ox0);
      }
    }
    if (ox0 < a.g.ow) {
      for (int oc = oc_begin; oc < oc_end; oc += kChans) {
        ConvTile<Half, kChans, kRows>(a, oc, oy, ox0);
      }
    }
  }
  if constexpr (kRows > 1) {
    if (oy < a.g.oh) {
      ConvTiles<Vec, kChans, kRows / 2>(a, oc_begin, oc_end, oy);
    }
  }
}

// The one kernel source, inlined into each instruction-set variant below
// with that variant's vector type.
template <typename Vec>
[[gnu::always_inline]] inline void ConvDirectBody(
    const ConvShape& s, ConvInputMap map, const float* input,
    const float* weight, const float* bias, float* scratch, float* out) {
  const PhasePlanes g = Layout(s);
  switch (map) {
    case ConvInputMap::kIdentity:
      FillPhasePlanes<ConvInputMap::kIdentity>(s, g, input, scratch);
      break;
    case ConvInputMap::kRelu:
      FillPhasePlanes<ConvInputMap::kRelu>(s, g, input, scratch);
      break;
    case ConvInputMap::kCenter:
      FillPhasePlanes<ConvInputMap::kCenter>(s, g, input, scratch);
      break;
  }
  const int channel_taps = s.kernel * s.kernel;
  std::array<size_t, kStackTaps> stack_offsets;
  std::vector<size_t> heap_offsets(
      channel_taps > kStackTaps ? channel_taps : 0);
  size_t* offsets = channel_taps > kStackTaps ? heap_offsets.data()
                                              : stack_offsets.data();
  TapOffsets(s, g, offsets);
  const ConvArgs a{s, g, scratch, offsets, weight, bias, out};
  // Groups of kConvChans channels, then a group of 2 and one of 1 for the
  // remainder.
  const int full = s.out_channels / kConvChans * kConvChans;
  ConvTiles<Vec, kConvChans, RowsPerTile<Vec, kConvChans>()>(a, 0, full, 0);
  int oc = full;
  if (s.out_channels - oc >= 2) {
    ConvTiles<Vec, 2, RowsPerTile<Vec, 2>()>(a, oc, oc + 2, 0);
    oc += 2;
  }
  if (oc < s.out_channels) {
    ConvTiles<Vec, 1, RowsPerTile<Vec, 1>()>(a, oc, oc + 1, 0);
  }
}

}  // namespace

// The variants have external linkage so that profiles (dladdr) name the
// one that ran.
void ConvDirectBaseline(const ConvShape& s, ConvInputMap map,
                        const float* input, const float* weight,
                        const float* bias, float* scratch, float* out) {
  ConvDirectBody<Float4>(s, map, input, weight, bias, scratch, out);
}

#if defined(__x86_64__) || defined(__i386__)
#define OTIF_CONV_X86 1
// AVX2 alone, not FMA: a fused multiply-add rounds once where the chain
// rounds twice, which would change outputs.
__attribute__((target("avx2"))) void ConvDirectAvx2(
    const ConvShape& s, ConvInputMap map, const float* input,
    const float* weight, const float* bias, float* scratch, float* out) {
  ConvDirectBody<Float8>(s, map, input, weight, bias, scratch, out);
}

// AVX-512F has fused multiply-adds of its own; -ffp-contract=off (set for
// every target) keeps the compiler from using them.
__attribute__((target("avx512f"))) void ConvDirectAvx512(
    const ConvShape& s, ConvInputMap map, const float* input,
    const float* weight, const float* bias, float* scratch, float* out) {
  ConvDirectBody<Float16>(s, map, input, weight, bias, scratch, out);
}
#endif

size_t ConvDirectScratchFloats(const ConvShape& shape) {
  if (shape.oh() <= 0 || shape.ow() <= 0) return 0;
  return static_cast<size_t>(shape.in_channels) * shape.stride *
         Layout(shape).floats;
}

ConvIsa ConvDirectIsa() {
#ifdef OTIF_CONV_X86
  if (CpuHasAvx512f()) return ConvIsa::kAvx512;
  if (CpuHasAvx2()) return ConvIsa::kAvx2;
#endif
  return ConvIsa::kBaseline;
}

void ConvDirectWith(ConvIsa isa, const ConvShape& shape, ConvInputMap map,
                    const float* input, const float* weight,
                    const float* bias, float* scratch, float* out) {
  OTIF_CHECK(isa <= ConvDirectIsa())
      << "this CPU lacks the instruction set of conv variant "
      << static_cast<int>(isa);
  if (shape.oh() <= 0 || shape.ow() <= 0) return;
  switch (isa) {
#ifdef OTIF_CONV_X86
    case ConvIsa::kAvx512:
      ConvDirectAvx512(shape, map, input, weight, bias, scratch, out);
      return;
    case ConvIsa::kAvx2:
      ConvDirectAvx2(shape, map, input, weight, bias, scratch, out);
      return;
#endif
    default:
      ConvDirectBaseline(shape, map, input, weight, bias, scratch, out);
      return;
  }
}

void ConvDirect(const ConvShape& shape, ConvInputMap map, const float* input,
                const float* weight, const float* bias, float* scratch,
                float* out) {
  ConvDirectWith(ConvDirectIsa(), shape, map, input, weight, bias, scratch,
                 out);
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
