#include "sim/raster.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/dataset.h"
#include "sim/world.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace otif::sim {
namespace {

Clip MakeTestClip() {
  return SimulateClip(MakeDataset(DatasetId::kSynthetic), 7, 200);
}

// 64-bit FNV-1a over the bytes of every pixel's float, in pixel order.
uint64_t PixelDigest(const video::Image& img) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < img.size(); ++i) {
    const uint32_t bits = std::bit_cast<uint32_t>(img.data()[i]);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(RasterizerTest, RendersRequestedResolution) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  video::Image img = raster.Render(0, 80, 60);
  EXPECT_EQ(img.width(), 80);
  EXPECT_EQ(img.height(), 60);
  // Pixels clamped to [0, 1].
  for (int y = 0; y < 60; ++y) {
    for (int x = 0; x < 80; ++x) {
      EXPECT_GE(img.at(x, y), 0.0f);
      EXPECT_LE(img.at(x, y), 1.0f);
    }
  }
}

TEST(RasterizerTest, RenderIsDeterministic) {
  Clip clip = MakeTestClip();
  Rasterizer r1(&clip), r2(&clip);
  video::Image a = r1.Render(5, 80, 60);
  video::Image b = r2.Render(5, 80, 60);
  EXPECT_FLOAT_EQ(a.MeanAbsDiff(b), 0.0f);
}

// Render digests recorded before the noise pass was vectorized: the
// Synthetic clip and the moving-camera UAV clip, at the proxy's 104x64, the
// tracker's 40x24 and an odd size (an unused last sine term).
TEST(RasterizerTest, RenderDigestsArePinned) {
  struct Pin {
    int frame, width, height;
    uint64_t synthetic, uav;
  };
  const Pin kPins[] = {
      {0, 104, 64, 0x4e00aec86b8aaf98ull, 0xf2fd13e257f67edbull},
      {5, 104, 64, 0x12c66555b32865b0ull, 0xf68281a5ea23ed9bull},
      {80, 104, 64, 0x7af6ca87629850adull, 0xf9b57ba088449fb1ull},
      {0, 40, 24, 0x0532a44484bec025ull, 0xa706d1906b109e3bull},
      {5, 40, 24, 0x2e5adc0c4df7d0c0ull, 0xecc60a9deb2d014dull},
      {80, 40, 24, 0xbd01303215eb2bbeull, 0x6c17ad32541e4e12ull},
      {0, 37, 21, 0x2acde54afd62fbd1ull, 0x173f5f4fc6a29ccbull},
      {5, 37, 21, 0xfd6e4738f43fc6d3ull, 0xdaa94dcd5da036eaull},
      {80, 37, 21, 0x31c120b5106c898dull, 0x164dde4c84e428d5ull},
  };
  Clip synthetic = MakeTestClip();
  Clip uav = SimulateClip(MakeDataset(DatasetId::kUav), 43, 100);
  Rasterizer synthetic_raster(&synthetic), uav_raster(&uav);
  for (const Pin& pin : kPins) {
    EXPECT_EQ(PixelDigest(synthetic_raster.Render(pin.frame, pin.width,
                                                  pin.height)),
              pin.synthetic)
        << "synthetic frame " << pin.frame << " at " << pin.width << "x"
        << pin.height;
    EXPECT_EQ(PixelDigest(uav_raster.Render(pin.frame, pin.width,
                                            pin.height)),
              pin.uav)
        << "uav frame " << pin.frame << " at " << pin.width << "x"
        << pin.height;
  }
}

TEST(RasterizerTest, ObjectsContrastWithBackground) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  // Find a frame with a reasonably large visible object.
  for (int f = 0; f < clip.num_frames(); ++f) {
    const auto& visible = clip.VisibleAt(f);
    if (visible.empty()) continue;
    const GtObject& obj = clip.objects()[visible[0].object_index];
    const ObjectFrameState& st = obj.states[visible[0].state_index];
    if (st.box.w < 15) continue;
    const int w = 160, h = 120;
    video::Image img = raster.Render(f, w, h);
    const video::Image& bg = raster.Background(w, h);
    const double sx = static_cast<double>(w) / clip.spec().width;
    const double sy = static_cast<double>(h) / clip.spec().height;
    // Mean absolute contrast over the object's box must be clear of the
    // sensor-noise floor so the proxy model has signal to learn from.
    const int x0 = std::max(0, static_cast<int>(st.box.Left() * sx));
    const int x1 = std::min(w - 1, static_cast<int>(st.box.Right() * sx));
    const int y0 = std::max(0, static_cast<int>(st.box.Top() * sy));
    const int y1 = std::min(h - 1, static_cast<int>(st.box.Bottom() * sy));
    if (x1 <= x0 || y1 <= y0) continue;
    double contrast = 0.0;
    int count = 0;
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        contrast += std::abs(img.at(x, y) - bg.at(x, y));
        ++count;
      }
    }
    EXPECT_GT(contrast / count, 0.06)
        << "object at frame " << f << " blends into the background";
    return;  // One good frame suffices.
  }
  FAIL() << "no frame with a large visible object";
}

TEST(RasterizerTest, FramesChangeOverTime) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  video::Image a = raster.Render(0, 80, 60);
  video::Image b = raster.Render(50, 80, 60);
  EXPECT_GT(a.MeanAbsDiff(b), 0.001f);
}

TEST(RasterizerTest, BackgroundIsCachedAndStable) {
  Clip clip = MakeTestClip();
  Rasterizer raster(&clip);
  const video::Image& bg1 = raster.Background(64, 48);
  const video::Image& bg2 = raster.Background(64, 48);
  EXPECT_EQ(&bg1, &bg2);
}

TEST(RasterizerTest, MovingCameraShiftsBackground) {
  DatasetSpec spec = MakeDataset(DatasetId::kUav);
  Clip clip = SimulateClip(spec, 43, 100);
  Rasterizer raster(&clip);
  // Two frames with different camera offsets should differ even without
  // objects accounting for most pixels.
  video::Image a = raster.Render(0, 96, 54);
  video::Image b = raster.Render(80, 96, 54);
  EXPECT_GT(a.MeanAbsDiff(b), 0.003f);
}

// Pixel counts: the proxy's 104x64 and the tracker's 40x24 rasters, an odd
// count (the last pair's sine term is unused), an even count that is not a
// multiple of 8 (a tail of 3 pairs), counts spanning several 512-value
// uniform chunks (one of them odd), and the smallest ones.
constexpr size_t kNoiseCounts[] = {104 * 64, 40 * 24, 37 * 21, 150,
                                   3 * 512 + 1, 2 * 512 + 6, 1, 2, 0};

// Checks the `isa` variant bit for bit against the loop it replaced, one
// Rng::Gaussian(0.0, 0.015) per pixel, over one frame of `count` pixels
// seeded with `seed`. Pixels live in exactly-sized heap arrays, where ASan
// sees a tail overrun. Adds the pairs sent to the exact path to `*exact`.
void ExpectNoiseMatchesGaussianLoopAt(NoiseIsa isa, uint64_t seed,
                                      size_t count, size_t* exact) {
  std::vector<float> base(count);
  for (size_t i = 0; i < count; ++i) {
    base[i] = 0.1f + 0.8f * static_cast<float>(i % 97) / 97.0f;
  }
  std::vector<float> want = base;
  Rng rng(seed);
  for (float& pixel : want) {
    pixel += static_cast<float>(rng.Gaussian(0.0, 0.015));
  }
  std::vector<float> got = base;
  *exact += AddSensorNoise(isa, seed, got.data(), got.size());
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(want[i]),
              std::bit_cast<uint32_t>(got[i]))
        << "count " << count << " seed " << seed << " pixel " << i;
  }
}

// The check above over `seeds` frames of every count.
void ExpectNoiseMatchesGaussianLoop(NoiseIsa isa, int seeds, size_t* exact) {
  for (const size_t count : kNoiseCounts) {
    for (int seed = 0; seed < seeds; ++seed) {
      ExpectNoiseMatchesGaussianLoopAt(
          isa, static_cast<uint64_t>(seed) * 7919 + count, count, exact);
    }
  }
}

TEST(SensorNoiseTest, ScalarMatchesGaussianLoopBitForBit) {
  size_t exact = 0;
  ExpectNoiseMatchesGaussianLoop(NoiseIsa::kScalar, 4, &exact);
  EXPECT_EQ(exact, 0u);
}

// About 4 in 100,000 pairs fail the rounding test, so 128 frames of every
// count (711,424 pairs, of which 29 take the exact path with glibc 2.36 on
// the AVX2 pass) must send some to the exact path, and far fewer than 1 in
// 2,000: a rounding test that failed lanes wholesale would keep the bits
// and lose the speed.
void ExpectVectorNoiseMatchesGaussianLoop(NoiseIsa isa) {
  constexpr int kSeeds = 128;
  size_t exact = 0;
  ExpectNoiseMatchesGaussianLoop(isa, kSeeds, &exact);
  size_t pairs = 0;
  for (const size_t count : kNoiseCounts) pairs += kSeeds * ((count + 1) / 2);
  EXPECT_GT(exact, 0u);
  EXPECT_LT(exact, pairs / 2000);
}

TEST(SensorNoiseTest, Avx2MatchesGaussianLoopBitForBit) {
  if (SensorNoiseIsa() < NoiseIsa::kAvx2) {
    GTEST_SKIP() << "this CPU (or build) has no AVX2 noise pass";
  }
  ExpectVectorNoiseMatchesGaussianLoop(NoiseIsa::kAvx2);
}

TEST(SensorNoiseTest, Avx512MatchesGaussianLoopBitForBit) {
  if (SensorNoiseIsa() < NoiseIsa::kAvx512) {
    GTEST_SKIP() << "this CPU (or build) has no AVX-512 noise pass";
  }
  ExpectVectorNoiseMatchesGaussianLoop(NoiseIsa::kAvx512);
}

// Rng::Gaussian redraws a u1 of 0, which shifts the rest of the stream by
// one word. Only a raw word below 2^11 gives one, so no random seed finds
// it: this seed's SplitMix64 expansion makes the generator's second state
// word 0, and xoshiro256** then returns 0 first. Every variant must match
// the Gaussian loop from there, over a frame and over a 3-pair tail.
TEST(SensorNoiseTest, EveryVariantRedrawsAZeroUniformAsGaussianDoes) {
  const uint64_t seed = 0 - 2 * 0x9e3779b97f4a7c15ULL;
  Rng rng(seed);
  ASSERT_EQ(rng.NextUint64(), 0u);
  for (const NoiseIsa isa :
       {NoiseIsa::kScalar, NoiseIsa::kAvx2, NoiseIsa::kAvx512}) {
    if (isa > SensorNoiseIsa()) continue;
    for (const size_t count : {size_t{104 * 64}, size_t{5}}) {
      SCOPED_TRACE(static_cast<int>(isa));
      size_t exact = 0;
      ExpectNoiseMatchesGaussianLoopAt(isa, seed, count, &exact);
    }
  }
}

// Random frames cannot catch a broken rounding test: with no guard at all,
// libmvec's values still round like libm's almost always. So this feeds the
// `isa` transform pairs whose scalar noise value lies within 2^-44
// (relative) of a float rounding midpoint, well inside the 2^-40 guard:
// each must take the exact path, and every value must match.
void ExpectNearMidpointPairsTakeExactPath(NoiseIsa isa) {
  constexpr size_t kPairs = 256;
  std::vector<double> u1, u2;
  Rng rng(2718);
  while (u1.size() < kPairs) {
    // Aim the cosine term (even k) or the sine term (odd k) at a point
    // within 2^-44 of a midpoint between adjacent floats, by solving
    // 0.015 r trig(theta) = target for u1 = exp(-r^2 / 2).
    const bool sine = u1.size() % 2 == 1;
    const double b = rng.NextDouble();
    const double theta = 2.0 * M_PI * b;
    const double trig = sine ? std::sin(theta) : std::cos(theta);
    const double value = 0.015 * rng.Uniform(0.2, 4.0) * trig;
    const float f = static_cast<float>(value);
    if (f == 0.0f) continue;
    const double midpoint =
        0.5 * (static_cast<double>(f) +
               static_cast<double>(std::nextafter(f, 2.0f * f)));
    const double target =
        midpoint * (1.0 + rng.Uniform(-1.0, 1.0) * 0x1p-44);
    const double r = target / (0.015 * trig);
    const double a = std::exp(-0.5 * r * r);
    if (!(a > 1e-300 && a < 1.0)) continue;
    // Keep the pair only if the scalar expression really lands that close.
    const double got =
        0.0 + 0.015 * (std::sqrt(-2.0 * std::log(a)) *
                       (sine ? std::sin(theta) : std::cos(theta)));
    if (std::abs(got - midpoint) > std::abs(midpoint) * 0x1p-44) continue;
    u1.push_back(a);
    u2.push_back(b);
  }
  std::vector<float> want(2 * kPairs), got(2 * kPairs);
  EXPECT_EQ(SensorNoiseTransform(NoiseIsa::kScalar, u1.data(), u2.data(),
                                 kPairs, want.data()),
            0u);
  EXPECT_EQ(SensorNoiseTransform(isa, u1.data(), u2.data(), kPairs,
                                 got.data()),
            kPairs);
  for (size_t i = 0; i < 2 * kPairs; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(want[i]), std::bit_cast<uint32_t>(got[i]))
        << "value " << i;
  }
}

TEST(SensorNoiseTest, RoundingTestSendsNearMidpointPairsToExactPath) {
  if (SensorNoiseIsa() < NoiseIsa::kAvx2) {
    GTEST_SKIP() << "this CPU (or build) has no AVX2 noise pass";
  }
  ExpectNearMidpointPairsTakeExactPath(NoiseIsa::kAvx2);
}

TEST(SensorNoiseTest, Avx512RoundingTestSendsNearMidpointPairsToExactPath) {
  if (SensorNoiseIsa() < NoiseIsa::kAvx512) {
    GTEST_SKIP() << "this CPU (or build) has no AVX-512 noise pass";
  }
  ExpectNearMidpointPairsTakeExactPath(NoiseIsa::kAvx512);
}

// Keeps the fast path from going missing: on an x86-64 glibc build running
// on an AVX2 CPU (every CI runner), renders must pick a vector pass, so a
// build change that loses it fails here instead of only slowing down.
TEST(SensorNoiseTest, PicksAvx2OnX86GlibcWithAvx2) {
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 22))
  if (!CpuHasAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  EXPECT_GE(SensorNoiseIsa(), NoiseIsa::kAvx2);
#else
  EXPECT_EQ(SensorNoiseIsa(), NoiseIsa::kScalar);
#endif
}

// Likewise, a CPU with AVX-512F must get the eight-pair pass.
TEST(SensorNoiseTest, PicksAvx512OnX86GlibcWithAvx512f) {
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 22))
  if (!CpuHasAvx512f()) GTEST_SKIP() << "this CPU has no AVX-512F";
  EXPECT_EQ(SensorNoiseIsa(), NoiseIsa::kAvx512);
#else
  EXPECT_NE(SensorNoiseIsa(), NoiseIsa::kAvx512);
#endif
}

}  // namespace
}  // namespace otif::sim
