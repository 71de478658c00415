#ifndef OTIF_MEM_VIEW_H_
#define OTIF_MEM_VIEW_H_

#include <cstddef>

namespace otif::mem {

/// Non-owning 2-D view over row-major float pixels. Borrowed from an owning
/// container (video::Image, a tensor slice, a pool buffer); the borrower
/// must not outlive the storage, and must not hold the view across any
/// operation that may reallocate it (resize, assignment, pool release).
/// Accessors skip bounds checks: views are the hot-path interface, the
/// owning containers keep the checked accessors.
struct ConstImageView {
  const float* data = nullptr;
  int width = 0;
  int height = 0;
  int row_stride = 0;  // Floats between the starts of adjacent rows.

  const float* row(int y) const {
    return data + static_cast<size_t>(y) * row_stride;
  }
  float at(int x, int y) const { return row(y)[x]; }
  bool empty() const { return width <= 0 || height <= 0; }
};

/// Mutable variant of ConstImageView; converts implicitly to the const view.
struct ImageView {
  float* data = nullptr;
  int width = 0;
  int height = 0;
  int row_stride = 0;

  float* row(int y) const {
    return data + static_cast<size_t>(y) * row_stride;
  }
  float at(int x, int y) const { return row(y)[x]; }
  void set(int x, int y, float v) const { row(y)[x] = v; }
  bool empty() const { return width <= 0 || height <= 0; }

  operator ConstImageView() const {  // NOLINT(google-explicit-constructor)
    return ConstImageView{data, width, height, row_stride};
  }
};

}  // namespace otif::mem

#endif  // OTIF_MEM_VIEW_H_
