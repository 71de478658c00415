#ifndef OTIF_NN_TENSOR_H_
#define OTIF_NN_TENSOR_H_

#include <cstdint>
#include <vector>

#include "mem/buffer_pool.h"
#include "util/logging.h"
#include "util/rng.h"

namespace otif::nn {

/// Dense float tensor with up to 4 dimensions. Layout is row-major over the
/// shape vector; conv layers interpret 3-D tensors as (channels, height,
/// width) and 4-D tensors as a batch (batch, channels, height, width).
/// Designed for single-example training of small models on CPU; inference
/// paths accept the batched 4-D form.
///
/// Element storage comes from the shared mem::BufferPool: steady-state
/// inference recycles pooled buffers instead of allocating. Construction
/// zero-fills as before; Uninitialized() skips the fill for buffers whose
/// every element is written before any read (batch staging, output planes).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape) : Tensor(std::move(shape), true) {}

  /// Like the shape constructor but leaves the elements unspecified
  /// (possibly recycled pool contents). Callers must write every element
  /// before reading any.
  static Tensor Uninitialized(std::vector<int> shape) {
    return Tensor(std::move(shape), false);
  }

  Tensor(const Tensor& o) { *this = o; }
  Tensor& operator=(const Tensor& o) {
    if (this == &o) return *this;
    shape_ = o.shape_;
    if (buffer_.capacity() < static_cast<size_t>(o.size_)) {
      buffer_ = mem::BufferPool::Global().Acquire(
          static_cast<size_t>(o.size_));
    }
    size_ = o.size_;
    if (size_ > 0) std::copy(o.data(), o.data() + size_, data());
    return *this;
  }
  Tensor(Tensor&& o) noexcept
      : shape_(std::move(o.shape_)), size_(o.size_),
        buffer_(std::move(o.buffer_)) {
    o.shape_.clear();
    o.size_ = 0;
  }
  Tensor& operator=(Tensor&& o) noexcept {
    if (this == &o) return *this;
    shape_ = std::move(o.shape_);
    size_ = o.size_;
    buffer_ = std::move(o.buffer_);
    o.shape_.clear();
    o.size_ = 0;
    return *this;
  }

  static Tensor Zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

  /// He-style initialization: normal with std sqrt(2 / fan_in).
  static Tensor RandomHe(std::vector<int> shape, int fan_in, Rng* rng) {
    Tensor t = Uninitialized(std::move(shape));
    const double std = std::sqrt(2.0 / std::max(1, fan_in));
    float* d = t.data();
    for (int64_t i = 0; i < t.size_; ++i) {
      d[i] = static_cast<float>(rng->Gaussian(0.0, std));
    }
    return t;
  }

  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const {
    OTIF_CHECK_LT(static_cast<size_t>(i), shape_.size());
    return shape_[static_cast<size_t>(i)];
  }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float* data() { return buffer_.data(); }
  const float* data() const { return buffer_.data(); }
  float& operator[](int64_t i) { return data()[i]; }
  float operator[](int64_t i) const { return data()[i]; }

  /// 3-D accessor (c, y, x) for (C, H, W) tensors.
  float& at3(int c, int y, int x) {
    return data()[Index3(c, y, x)];
  }
  float at3(int c, int y, int x) const { return data()[Index3(c, y, x)]; }

  /// 4-D accessor (n, c, y, x) for batched (N, C, H, W) tensors.
  float& at4(int n, int c, int y, int x) { return data()[Index4(n, c, y, x)]; }
  float at4(int n, int c, int y, int x) const {
    return data()[Index4(n, c, y, x)];
  }

  void Fill(float v) {
    float* d = data();
    for (int64_t i = 0; i < size_; ++i) d[i] = v;
  }

  /// Elementwise in-place addition; shapes must match.
  void Add(const Tensor& o) {
    OTIF_CHECK_EQ(size(), o.size());
    float* d = data();
    const float* s = o.data();
    for (int64_t i = 0; i < size_; ++i) d[i] += s[i];
  }

  /// In-place scale.
  void Scale(float s) {
    float* d = data();
    for (int64_t i = 0; i < size_; ++i) d[i] *= s;
  }

  /// Sum of squared entries (for gradient-norm diagnostics).
  double SumSquares() const {
    double s = 0.0;
    const float* d = data();
    for (int64_t i = 0; i < size_; ++i) {
      s += static_cast<double>(d[i]) * d[i];
    }
    return s;
  }

 private:
  Tensor(std::vector<int> shape, bool zero_fill) : shape_(std::move(shape)) {
    int64_t n = 1;
    for (int d : shape_) {
      OTIF_CHECK_GT(d, 0);
      n *= d;
    }
    buffer_ = mem::BufferPool::Global().Acquire(static_cast<size_t>(n));
    size_ = n;
    if (zero_fill) Fill(0.0f);
  }

  size_t Index3(int c, int y, int x) const {
    OTIF_CHECK_EQ(shape_.size(), 3u);
    OTIF_CHECK(c >= 0 && c < shape_[0] && y >= 0 && y < shape_[1] && x >= 0 &&
               x < shape_[2])
        << c << "," << y << "," << x;
    return (static_cast<size_t>(c) * shape_[1] + y) * shape_[2] + x;
  }

  size_t Index4(int n, int c, int y, int x) const {
    OTIF_CHECK_EQ(shape_.size(), 4u);
    OTIF_CHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] && y >= 0 &&
               y < shape_[2] && x >= 0 && x < shape_[3])
        << n << "," << c << "," << y << "," << x;
    return ((static_cast<size_t>(n) * shape_[1] + c) * shape_[2] + y) *
               shape_[3] +
           x;
  }

  std::vector<int> shape_;
  int64_t size_ = 0;
  mem::PooledBuffer buffer_;
};

}  // namespace otif::nn

#endif  // OTIF_NN_TENSOR_H_
