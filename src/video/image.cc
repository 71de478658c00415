#include "video/image.h"

#include <algorithm>
#include <cmath>

namespace otif::video {
namespace {

// The one resize kernel: Resized and both ResizedInto overloads funnel here,
// so their outputs are bit-identical by construction. Every output pixel is
// written, which is what lets callers hand in uninitialized arrays.
void ResizeImpl(mem::ConstImageView src, mem::ImageView out) {
  const int new_width = out.width;
  const int new_height = out.height;
  const double sx = static_cast<double>(src.width) / new_width;
  const double sy = static_cast<double>(src.height) / new_height;
  if (sx >= 1.0 && sy >= 1.0) {
    // Area average for downscaling.
    for (int oy = 0; oy < new_height; ++oy) {
      const int y0 = static_cast<int>(oy * sy);
      const int y1 = std::max(
          y0 + 1, std::min(static_cast<int>((oy + 1) * sy), src.height));
      for (int ox = 0; ox < new_width; ++ox) {
        const int x0 = static_cast<int>(ox * sx);
        const int x1 = std::max(
            x0 + 1, std::min(static_cast<int>((ox + 1) * sx), src.width));
        float sum = 0.0f;
        for (int y = y0; y < y1; ++y) {
          const float* r = src.row(y);
          for (int x = x0; x < x1; ++x) sum += r[x];
        }
        out.set(ox, oy, sum / static_cast<float>((y1 - y0) * (x1 - x0)));
      }
    }
    return;
  }
  // Bilinear for upscaling (or mixed directions).
  for (int oy = 0; oy < new_height; ++oy) {
    const double fy = (oy + 0.5) * sy - 0.5;
    const int y0 =
        std::clamp(static_cast<int>(std::floor(fy)), 0, src.height - 1);
    const int y1 = std::min(y0 + 1, src.height - 1);
    const double wy = std::clamp(fy - y0, 0.0, 1.0);
    for (int ox = 0; ox < new_width; ++ox) {
      const double fx = (ox + 0.5) * sx - 0.5;
      const int x0 =
          std::clamp(static_cast<int>(std::floor(fx)), 0, src.width - 1);
      const int x1 = std::min(x0 + 1, src.width - 1);
      const double wx = std::clamp(fx - x0, 0.0, 1.0);
      const double top = src.at(x0, y0) * (1 - wx) + src.at(x1, y0) * wx;
      const double bot = src.at(x0, y1) * (1 - wx) + src.at(x1, y1) * wx;
      out.set(ox, oy, static_cast<float>(top * (1 - wy) + bot * wy));
    }
  }
}

}  // namespace

Image& Image::operator=(const Image& o) {
  if (this == &o) return *this;
  ResizeUninitialized(o.width_, o.height_);
  if (size_ > 0) std::copy(o.data(), o.data() + size_, data());
  return *this;
}

void Image::ResizeUninitialized(int width, int height) {
  OTIF_CHECK_GE(width, 0);
  OTIF_CHECK_GE(height, 0);
  const size_t n = static_cast<size_t>(width) * height;
  if (capacity_ < n) {
    data_ = std::make_unique_for_overwrite<float[]>(n);
    capacity_ = n;
  }
  width_ = width;
  height_ = height;
  size_ = n;
}

void Image::Clamp() {
  float* d = data();
  for (size_t i = 0; i < size_; ++i) d[i] = std::clamp(d[i], 0.0f, 1.0f);
}

Image Image::Resized(int new_width, int new_height) const {
  Image out;
  ResizedInto(new_width, new_height, &out);
  return out;
}

void Image::ResizedInto(int new_width, int new_height, Image* out) const {
  OTIF_CHECK_GT(new_width, 0);
  OTIF_CHECK_GT(new_height, 0);
  OTIF_CHECK(!empty());
  OTIF_CHECK(out != nullptr);
  if (out == this) {
    Image tmp;
    ResizedInto(new_width, new_height, &tmp);
    *out = std::move(tmp);
    return;
  }
  out->ResizeUninitialized(new_width, new_height);
  ResizeImpl(view(), out->view());
}

void Image::ResizedInto(mem::ImageView out) const {
  OTIF_CHECK_GT(out.width, 0);
  OTIF_CHECK_GT(out.height, 0);
  OTIF_CHECK(!empty());
  OTIF_CHECK(out.data != data());
  ResizeImpl(view(), out);
}

float Image::Mean() const {
  if (empty()) return 0.0f;
  double sum = 0.0;
  const float* d = data();
  for (size_t i = 0; i < size_; ++i) sum += d[i];
  return static_cast<float>(sum / size_);
}

float Image::MeanAbsDiff(const Image& other) const {
  OTIF_CHECK_EQ(width_, other.width_);
  OTIF_CHECK_EQ(height_, other.height_);
  if (empty()) return 0.0f;
  double sum = 0.0;
  const float* a = data();
  const float* b = other.data();
  for (size_t i = 0; i < size_; ++i) sum += std::abs(a[i] - b[i]);
  return static_cast<float>(sum / size_);
}

}  // namespace otif::video
