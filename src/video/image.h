#ifndef OTIF_VIDEO_IMAGE_H_
#define OTIF_VIDEO_IMAGE_H_

#include <cstdint>
#include <cstddef>

#include "mem/buffer_pool.h"
#include "mem/view.h"
#include "util/logging.h"

namespace otif::video {

/// Grayscale image with float pixels in [0, 1], row-major. All frames in the
/// synthetic world are single-channel; the paper's models consume RGB but
/// nothing in the evaluated pipeline depends on chroma.
///
/// Pixel storage comes from the shared mem::BufferPool, so constructing,
/// copying, and destroying images at steady state recycles pooled buffers
/// instead of touching the heap. Copy-assignment reuses the destination's
/// buffer when its capacity fits (Pipeline::Run's frame slots and the
/// Rasterizer rely on this); view() borrows the pixels as a non-owning
/// mem::ImageView for strided/zero-copy consumers.
class Image {
 public:
  Image() = default;
  Image(int width, int height, float fill = 0.0f) {
    OTIF_CHECK_GE(width, 0);
    OTIF_CHECK_GE(height, 0);
    ResizeUninitialized(width, height);
    float* d = data();
    for (size_t i = 0; i < size_; ++i) d[i] = fill;
  }

  Image(const Image& o) { *this = o; }
  Image& operator=(const Image& o);
  Image(Image&& o) noexcept
      : width_(o.width_), height_(o.height_), size_(o.size_),
        buffer_(std::move(o.buffer_)) {
    o.width_ = 0;
    o.height_ = 0;
    o.size_ = 0;
  }
  Image& operator=(Image&& o) noexcept {
    if (this == &o) return *this;
    width_ = o.width_;
    height_ = o.height_;
    size_ = o.size_;
    buffer_ = std::move(o.buffer_);
    o.width_ = 0;
    o.height_ = 0;
    o.size_ = 0;
    return *this;
  }

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  float at(int x, int y) const {
    OTIF_CHECK(InBounds(x, y)) << x << "," << y;
    return data()[static_cast<size_t>(y) * width_ + x];
  }
  void set(int x, int y, float v) {
    OTIF_CHECK(InBounds(x, y)) << x << "," << y;
    data()[static_cast<size_t>(y) * width_ + x] = v;
  }
  bool InBounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  const float* data() const { return buffer_.data(); }
  float* data() { return buffer_.data(); }
  const float* row(int y) const {
    return data() + static_cast<size_t>(y) * width_;
  }
  float* row(int y) {
    return data() + static_cast<size_t>(y) * width_;
  }

  /// Borrows the pixels as a non-owning view (see mem/view.h for lifetime
  /// rules: the view must not outlive this image or span a reallocation).
  mem::ImageView view() { return {data(), width_, height_, width_}; }
  mem::ConstImageView view() const { return {data(), width_, height_, width_}; }

  /// Reshapes to `width` x `height` without initializing pixels, reusing
  /// the current buffer when its capacity fits. Callers must write every
  /// pixel before reading any.
  void ResizeUninitialized(int width, int height);

  /// Clamps all pixels into [0, 1].
  void Clamp();

  /// Area-averaged downscale (or bilinear upscale) to the given size.
  Image Resized(int new_width, int new_height) const;

  /// Resized, but writing into `out` (buffer reused when capacity fits;
  /// zero allocation at steady state). Safe when `out` aliases this image —
  /// the result is then routed through a temporary. Bit-identical to
  /// Resized: both run the same kernel.
  void ResizedInto(int new_width, int new_height, Image* out) const;

  /// Resized into a caller-provided view (e.g. a tensor slice); `out`'s
  /// dimensions select the target size and must be positive. `out` must not
  /// alias this image's pixels.
  void ResizedInto(mem::ImageView out) const;

  /// Mean pixel value (0 for an empty image).
  float Mean() const;

  /// Mean absolute per-pixel difference against another image of identical
  /// dimensions.
  float MeanAbsDiff(const Image& other) const;

 private:
  int width_ = 0;
  int height_ = 0;
  size_t size_ = 0;
  mem::PooledBuffer buffer_;
};

}  // namespace otif::video

#endif  // OTIF_VIDEO_IMAGE_H_
