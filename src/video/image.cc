#include "video/image.h"

#include <algorithm>
#include <cmath>

namespace otif::video {

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
