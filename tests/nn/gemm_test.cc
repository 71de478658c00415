#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <vector>

#include "nn/arena.h"
#include "util/rng.h"

namespace otif::nn {
namespace {

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Gaussian(0.0, 1.0));
  return v;
}

// The contract the blocked kernel must reproduce bit-for-bit: one
// accumulator chain per output, starting at the bias, k ascending.
std::vector<float> NaiveGemmBias(int m, int n, int k,
                                 const std::vector<float>& a,
                                 const std::vector<float>& b,
                                 const float* bias_col) {
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = bias_col != nullptr ? bias_col[j] : 0.0f;
      for (int p = 0; p < k; ++p) {
        acc += a[static_cast<size_t>(i) * k + p] *
               b[static_cast<size_t>(p) * n + j];
      }
      c[static_cast<size_t>(i) * n + j] = acc;
    }
  }
  return c;
}

void ExpectBitIdentical(int m, int n, int k, bool col_bias, uint64_t seed) {
  Rng rng(seed);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
  const std::vector<float> bc = RandomVec(static_cast<size_t>(n), &rng);
  const float* bias_col = col_bias ? bc.data() : nullptr;

  const std::vector<float> want = NaiveGemmBias(m, n, k, a, b, bias_col);
  std::vector<float> got(static_cast<size_t>(m) * n, -1.0f);
  GemmBias(m, n, k, a.data(), b.data(), bias_col, got.data());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i])
        << "m=" << m << " n=" << n << " k=" << k << " at " << i;
  }
}

TEST(GemmBiasTest, MatchesNaiveChainExactlyAcrossTileEdges) {
  // Cover full tiles, row remainders (m % 4), column remainders (n % 16),
  // and the column-panel boundary (n > 512).
  const int ms[] = {1, 3, 4, 5, 8, 16};
  const int ns[] = {1, 15, 16, 17, 48};
  const int ks[] = {1, 9, 72};
  uint64_t seed = 1;
  for (int m : ms) {
    for (int n : ns) {
      for (int k : ks) {
        ExpectBitIdentical(m, n, k, /*col_bias=*/true, seed++);
        ExpectBitIdentical(m, n, k, /*col_bias=*/false, seed++);
      }
    }
  }
}

TEST(GemmBiasTest, ColumnPanelBoundary) {
  ExpectBitIdentical(6, 520, 27, /*col_bias=*/true, 99);
  ExpectBitIdentical(4, 1024, 9, /*col_bias=*/true, 100);
}

TEST(GemmBiasTest, ColumnBiasMatchesNaive) {
  const int ns[] = {1, 16, 33};
  uint64_t seed = 200;
  for (int m : {1, 4, 7}) {
    for (int n : ns) {
      ExpectBitIdentical(m, n, 24, /*col_bias=*/true, seed++);
    }
  }
}

TEST(GemmAccumulateTest, ContinuesEachChainFromC) {
  // C += A * B must equal a scalar `c += a * b` loop from C's current
  // value, k ascending, across tile edges and the column-panel boundary;
  // splitting k into two calls continues the same chains.
  uint64_t seed = 300;
  for (int m : {1, 3, 4, 9, 16}) {
    for (int n : {1, 8, 16, 17, 520}) {
      for (int k : {1, 9, 104}) {
        Rng rng(seed++);
        const std::vector<float> a = RandomVec(static_cast<size_t>(m) * k, &rng);
        const std::vector<float> b = RandomVec(static_cast<size_t>(k) * n, &rng);
        const std::vector<float> c0 =
            RandomVec(static_cast<size_t>(m) * n, &rng);
        std::vector<float> want = c0;
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            float acc = want[static_cast<size_t>(i) * n + j];
            for (int p = 0; p < k; ++p) {
              acc += a[static_cast<size_t>(i) * k + p] *
                     b[static_cast<size_t>(p) * n + j];
            }
            want[static_cast<size_t>(i) * n + j] = acc;
          }
        }
        std::vector<float> whole = c0;
        GemmAccumulate(m, n, k, a.data(), b.data(), whole.data());
        // Split k at k1: A's columns [0, k1) then [k1, k), repacked.
        const int k1 = k / 2;
        std::vector<float> a_lo, a_hi;
        for (int i = 0; i < m; ++i) {
          const float* row = a.data() + static_cast<size_t>(i) * k;
          a_lo.insert(a_lo.end(), row, row + k1);
          a_hi.insert(a_hi.end(), row + k1, row + k);
        }
        std::vector<float> split = c0;
        GemmAccumulate(m, n, k1, a_lo.data(), b.data(), split.data());
        GemmAccumulate(m, n, k - k1, a_hi.data(),
                       b.data() + static_cast<size_t>(k1) * n, split.data());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i], whole[i])
              << "m=" << m << " n=" << n << " k=" << k << " at " << i;
          ASSERT_EQ(want[i], split[i])
              << "split m=" << m << " n=" << n << " k=" << k << " at " << i;
        }
      }
    }
  }
}

TEST(Im2ColTest, ReproducesPaddedPatchSampling) {
  const int channels = 3, h = 7, w = 9, kernel = 3;
  for (int stride : {1, 2, 3}) {
    Rng rng(7);
    const std::vector<float> input =
        RandomVec(static_cast<size_t>(channels) * h * w, &rng);
    const int oh = (h + stride - 1) / stride;
    const int ow = (w + stride - 1) / stride;
    const int pad = kernel / 2;
    std::vector<float> panel(static_cast<size_t>(channels) * kernel * kernel *
                             oh * ow);
    Im2Col(input.data(), channels, h, w, kernel, stride, oh, ow,
           panel.data());
    for (int ic = 0; ic < channels; ++ic) {
      for (int ky = 0; ky < kernel; ++ky) {
        for (int kx = 0; kx < kernel; ++kx) {
          const int row = (ic * kernel + ky) * kernel + kx;
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
              const int iy = oy * stride - pad + ky;
              const int ix = ox * stride - pad + kx;
              const float want =
                  (iy < 0 || iy >= h || ix < 0 || ix >= w)
                      ? 0.0f
                      : input[(static_cast<size_t>(ic) * h + iy) * w + ix];
              const float got =
                  panel[(static_cast<size_t>(row) * oh + oy) * ow + ox];
              ASSERT_EQ(want, got)
                  << "stride=" << stride << " row=" << row << " oy=" << oy
                  << " ox=" << ox;
            }
          }
        }
      }
    }
  }
}

TEST(ScratchArenaTest, PointersStayValidAcrossGrowth) {
  ScratchArena arena;
  ScratchScope scope(arena);
  float* small = arena.Alloc(16);
  small[0] = 42.0f;
  // Force several chunk growths; the first allocation must not move.
  for (int i = 0; i < 6; ++i) {
    float* big = arena.Alloc(size_t{1} << (17 + i));
    big[0] = static_cast<float>(i);
  }
  EXPECT_EQ(small[0], 42.0f);
}

TEST(ScratchArenaTest, ScopeReleasesAndMemoryIsReused) {
  ScratchArena arena;
  float* first = nullptr;
  {
    ScratchScope scope(arena);
    first = arena.Alloc(1024);
  }
  const size_t reserved = arena.FloatsReserved();
  {
    ScratchScope scope(arena);
    float* again = arena.Alloc(1024);
    EXPECT_EQ(first, again);
  }
  // Steady state: repeated scopes allocate no new chunks.
  for (int i = 0; i < 100; ++i) {
    ScratchScope scope(arena);
    arena.Alloc(1024);
    arena.Alloc(2048);
  }
  EXPECT_EQ(arena.FloatsReserved(), reserved);
}

TEST(ScratchArenaTest, NestedScopesUnwindToTheirWatermarks) {
  ScratchArena arena;
  ScratchScope outer(arena);
  float* a = arena.Alloc(8);
  float* inner_ptr = nullptr;
  {
    ScratchScope inner(arena);
    inner_ptr = arena.Alloc(8);
    EXPECT_NE(a, inner_ptr);
  }
  // Inner scope released its allocation; the next Alloc reuses it.
  EXPECT_EQ(inner_ptr, arena.Alloc(8));
}

}  // namespace
}  // namespace otif::nn
