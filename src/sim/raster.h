#ifndef OTIF_SIM_RASTER_H_
#define OTIF_SIM_RASTER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "sim/world.h"
#include "video/image.h"

namespace otif::sim {

/// The instruction sets the sensor-noise pass is built for, in order: a
/// CPU that runs one runs every one before it. All give the same bits.
enum class NoiseIsa { kScalar, kAvx2, kAvx512 };

/// The variant every render runs. On an x86-64 glibc build (which has
/// libmvec): kAvx512 where the CPU has AVX-512F (CpuHasAvx512f()), else
/// kAvx2 where it has AVX2 (CpuHasAvx2()). kScalar otherwise.
NoiseIsa SensorNoiseIsa();

/// The sensor-noise pass of every render (DESIGN.md, "Frame source"):
/// pixel i of `pixels[0, count)` gains
///   static_cast<float>(rng.Gaussian(0.0, 0.015))
/// from one Rng(seed) called once per pixel in order, so pixel 2k takes the
/// cosine term of the k-th Box-Muller pair and pixel 2k + 1 its sine term.
/// The uniforms are drawn in that order, a stack chunk at a time, and
/// SensorNoiseTransform turns them into noise. Returns the number of pairs
/// the rounding test sent to the exact path (0 for kScalar). Requires
/// isa <= SensorNoiseIsa().
size_t AddSensorNoise(NoiseIsa isa, uint64_t seed, float* pixels,
                      size_t count);

/// The Box-Muller transform of `pairs` uniform pairs (u1[k] in (0, 1),
/// u2[k] in [0, 1)) into noise[2k] = float(0.015 * (r cos theta)) and
/// noise[2k + 1] = float(0.015 * (r sin theta)), with r = sqrt(-2 log u1)
/// and theta = 2 pi u2, exactly as Rng::Gaussian(0.0, 0.015) computes them.
/// kAvx2 and kAvx512 transform four and eight pairs at a time with
/// libmvec and keep a lane only when a rounding test proves its floats
/// equal the scalar expression's; other lanes, and a tail of fewer pairs
/// than a vector holds, run that expression. Returns the number of pairs
/// the rounding test sent to it (0 for kScalar). Requires isa <=
/// SensorNoiseIsa(). Exposed so tests can feed the rounding test chosen
/// pairs.
size_t SensorNoiseTransform(NoiseIsa isa, const double* u1, const double* u2,
                            size_t pairs, float* noise);

/// Renders grayscale frames of a clip at arbitrary resolutions. The frame
/// content is what the (real, trained) segmentation proxy model consumes:
/// a static per-dataset background texture with darker road bands along the
/// spawn paths, objects drawn as shaded boxes, and per-frame sensor noise.
///
/// Backgrounds are cached per output resolution; rendering a frame costs
/// O(output pixels + object pixels).
///
/// Thread safety: Render/RenderInto may be called concurrently (the
/// background cache is guarded by a mutex; map entries are never erased, so
/// returned references stay valid). Output is deterministic in
/// (frame, width, height) regardless of call order or interleaving.
class Rasterizer {
 public:
  /// `clip` must outlive the rasterizer.
  explicit Rasterizer(const Clip* clip);

  Rasterizer(const Rasterizer&) = delete;
  Rasterizer& operator=(const Rasterizer&) = delete;

  /// Renders frame `frame` at `width` x `height` output pixels.
  video::Image Render(int frame, int width, int height);

  /// Renders into `out`, reusing its pixel array when it is large enough
  /// (Pipeline::Run re-renders into one image per frame-group slot, so a
  /// clip allocates each slot's pixels once). Same output as Render.
  void RenderInto(int frame, int width, int height, video::Image* out);

  /// Renders the static background only (no objects, no noise); every
  /// rendered frame starts from it. Exposed for tests.
  const video::Image& Background(int width, int height);

 private:
  video::Image BuildBackground(int width, int height) const;

  const Clip* clip_;  // Not owned.
  std::mutex mu_;     // Guards background_cache_.
  std::map<std::pair<int, int>, video::Image> background_cache_;
};

}  // namespace otif::sim

#endif  // OTIF_SIM_RASTER_H_
