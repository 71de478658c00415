#ifndef OTIF_SIM_RASTER_H_
#define OTIF_SIM_RASTER_H_

#include <map>
#include <mutex>
#include <utility>

#include "sim/world.h"
#include "video/image.h"

namespace otif::sim {

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
