#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "nn/arena.h"
#include "nn/gemm.h"

namespace otif::nn {
namespace {

int OutDim(int in, int stride) { return (in + stride - 1) / stride; }

// Checks that `grad_output` is the output gradient of a conv over `input`.
void CheckBackwardShapes(const Tensor& input, const Tensor& grad_output,
                         int in_channels, int out_channels, int stride) {
  OTIF_CHECK_EQ(input.ndim(), 3);
  OTIF_CHECK_EQ(input.dim(0), in_channels);
  OTIF_CHECK_EQ(grad_output.ndim(), 3);
  OTIF_CHECK_EQ(grad_output.dim(0), out_channels);
  OTIF_CHECK_EQ(grad_output.dim(1), OutDim(input.dim(1), stride));
  OTIF_CHECK_EQ(grad_output.dim(2), OutDim(input.dim(2), stride));
}

// dst (cols x rows) = src (rows x cols) transposed; both row-major.
void Transpose(const float* src, int rows, int cols, float* dst) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      dst[static_cast<size_t>(c) * rows + r] =
          src[static_cast<size_t>(r) * cols + c];
    }
  }
}

}  // namespace

float StableSigmoid(float x) {
  if (x >= 0) {
    const float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

// --- Conv2d -----------------------------------------------------------------

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      weight_(Tensor::RandomHe({out_channels, in_channels, kernel, kernel},
                               in_channels * kernel * kernel, rng)),
      bias_(Tensor::Zeros({out_channels})) {
  OTIF_CHECK_EQ(kernel % 2, 1) << "'same' padding requires odd kernels";
  OTIF_CHECK_GE(stride, 1);
}

Tensor Conv2d::Forward(const Tensor& input) {
  OTIF_CHECK_EQ(input.ndim(), 3) << "training takes one (C, H, W) image";
  Tensor out = Infer(input);
  cache_.push_back(input);
  return out;
}

void Conv2d::InferInto(const float* input, int h, int w, int oh, int ow,
                       ConvInputMap map, float* out) const {
  const ConvShape shape{in_channels_, out_channels_, kernel_, stride_, h, w};
  OTIF_CHECK_EQ(oh, shape.oh());
  OTIF_CHECK_EQ(ow, shape.ow());
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchScope scope(arena);
  float* planes = arena.Alloc(ConvDirectScratchFloats(shape));
  ConvDirect(shape, map, input, weight_.value.data(), bias_.value.data(),
             planes, out);
}

Tensor Conv2d::Infer(const Tensor& input) const {
  OTIF_CHECK_EQ(input.ndim(), 3);
  OTIF_CHECK_EQ(input.dim(0), in_channels_);
  const int h = input.dim(1), w = input.dim(2);
  const int oh = OutDim(h, stride_), ow = OutDim(w, stride_);
  Tensor out({out_channels_, oh, ow});
  InferInto(input.data(), h, w, oh, ow, ConvInputMap::kIdentity, out.data());
  return out;
}

Tensor Conv2d::InferReference(const Tensor& input) const {
  OTIF_CHECK_EQ(input.ndim(), 3);
  OTIF_CHECK_EQ(input.dim(0), in_channels_);
  const int h = input.dim(1), w = input.dim(2);
  const int oh = OutDim(h, stride_), ow = OutDim(w, stride_);
  const int pad = kernel_ / 2;
  Tensor out({out_channels_, oh, ow});
  const float* wdata = weight_.value.data();
  for (int oc = 0; oc < out_channels_; ++oc) {
    const float b = bias_.value[oc];
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        float acc = b;
        const int iy0 = oy * stride_ - pad;
        const int ix0 = ox * stride_ - pad;
        for (int ic = 0; ic < in_channels_; ++ic) {
          const float* wk =
              wdata + ((static_cast<size_t>(oc) * in_channels_ + ic) *
                       kernel_ * kernel_);
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            const int kx_lo = std::max(0, -ix0);
            const int kx_hi = std::min(kernel_, w - ix0);
            const float* in_row = input.data() +
                                  (static_cast<size_t>(ic) * h + iy) * w + ix0;
            const float* w_row = wk + static_cast<size_t>(ky) * kernel_;
            for (int kx = kx_lo; kx < kx_hi; ++kx) {
              acc += w_row[kx] * in_row[kx];
            }
          }
        }
        out.at3(oc, oy, ox) = acc;
      }
    }
  }
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  OTIF_CHECK(!cache_.empty()) << "Backward without matching Forward";
  const int h = cache_.back().dim(1), w = cache_.back().dim(2);
  BackwardParams(grad_output);
  return InputGrad(grad_output, h, w);
}

void Conv2d::BackwardParams(const Tensor& grad_output) {
  OTIF_CHECK(!cache_.empty()) << "Backward without matching Forward";
  const Tensor input = std::move(cache_.back());
  cache_.pop_back();
  CheckBackwardShapes(input, grad_output, in_channels_, out_channels_,
                      stride_);
  AccumulateParamGrads(input, grad_output);
}

void Conv2d::AccumulateParamGrads(const Tensor& input,
                                  const Tensor& grad_output) {
  const int h = input.dim(1), w = input.dim(2);
  const int oh = grad_output.dim(1), ow = grad_output.dim(2);
  const int n = oh * ow;
  const int k = in_channels_ * kernel_ * kernel_;
  const float* dy = grad_output.data();

  // Bias: per channel, the upstream gradient over output positions,
  // ascending, starting from the held gradient.
  for (int oc = 0; oc < out_channels_; ++oc) {
    const float* row = dy + static_cast<size_t>(oc) * n;
    float acc = bias_.grad[oc];
    for (int p = 0; p < n; ++p) acc += row[p];
    bias_.grad[oc] = acc;
  }

  // Weights: dW^T (k x out) += col (k x n) * dY^T (n x out). Each weight's
  // chain starts from its held gradient and runs over output positions
  // ascending, as the reference loop's does; col is Infer's im2col panel.
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchScope scope(arena);
  float* col = arena.Alloc(static_cast<size_t>(k) * n);
  float* dyt = arena.Alloc(static_cast<size_t>(n) * out_channels_);
  float* gwt = arena.Alloc(static_cast<size_t>(k) * out_channels_);
  Im2Col(input.data(), in_channels_, h, w, kernel_, stride_, oh, ow, col);
  Transpose(dy, out_channels_, n, dyt);
  float* gw = weight_.grad.data();
  Transpose(gw, out_channels_, k, gwt);
  GemmAccumulate(k, out_channels_, n, col, dyt, gwt);
  Transpose(gwt, k, out_channels_, gw);
}

Tensor Conv2d::InputGrad(const Tensor& grad_output, int h, int w) const {
  const int oh = grad_output.dim(1), ow = grad_output.dim(2);
  const int pad = kernel_ / 2;
  const int st = stride_;
  Tensor grad_in({in_channels_, h, w});
  const float* wdata = weight_.value.data();
  ScratchArena& arena = ScratchArena::ThreadLocal();

  // Input pixels fall into stride x stride phases (iy % stride, ix %
  // stride). Output (oy, ox) reaches pixel (oy*stride - pad + ky,
  // ox*stride - pad + kx), so within a phase only the taps with
  // ky = iy + pad (mod stride), and likewise kx, reach a pixel: the other
  // taps' D entries would be zero in every column, and are left out.
  for (int py = 0; py < st; ++py) {
    for (int px = 0; px < st; ++px) {
      // The phase's taps in descending order: ky_hi, ky_hi - stride, ...
      const int ry = (py + pad) % st, rx = (px + pad) % st;
      const int nky = ry < kernel_ ? (kernel_ - 1 - ry) / st + 1 : 0;
      const int nkx = rx < kernel_ ? (kernel_ - 1 - rx) / st + 1 : 0;
      const int ky_hi = ry + st * (nky - 1), kx_hi = rx + st * (nkx - 1);
      const int ph = py < h ? (h - 1 - py) / st + 1 : 0;  // Phase rows.
      const int pw = px < w ? (w - 1 - px) / st + 1 : 0;  // Phase columns.
      const int kd = out_channels_ * nky * nkx;           // Rows of D.
      if (kd == 0 || ph == 0 || pw == 0) continue;  // No output reaches.

      ScratchScope scope(arena);
      // W~ (in x kd): row ic holds W[oc][ic][ky][kx] at column (oc, ky
      // descending, kx descending), the order in which the reference loop
      // adds into each input pixel (later output rows/columns reach a pixel
      // through smaller ky/kx).
      float* wt = arena.Alloc(static_cast<size_t>(in_channels_) * kd);
      float* dst = wt;
      for (int ic = 0; ic < in_channels_; ++ic) {
        for (int oc = 0; oc < out_channels_; ++oc) {
          const float* wk =
              wdata + (static_cast<size_t>(oc) * in_channels_ + ic) *
                          kernel_ * kernel_;
          for (int ky = ky_hi; ky >= 0; ky -= st) {
            for (int kx = kx_hi; kx >= 0; kx -= st) {
              *dst++ = wk[ky * kernel_ + kx];
            }
          }
        }
      }

      // D (kd x phase pixels) and the product C = W~ * D (in x phase
      // pixels), tiled over phase rows so that W~ plus one tile fits the
      // arena's first chunk. Row (oc, ky, kx) of D holds, at phase pixel
      // (jy, jx), dY[oc][oy0 + jy][ox0 + jx] with oy0 = (py + pad - ky) /
      // stride (ox0 likewise), or 0 where that output does not exist. Each
      // pixel's chain starts from 0 like the reference loop's fresh
      // gradient.
      const size_t wt_floats = static_cast<size_t>(in_channels_) * kd;
      const size_t budget = ScratchArena::kMinChunkFloats > wt_floats
                                ? ScratchArena::kMinChunkFloats - wt_floats
                                : 0;
      const size_t row_floats =
          static_cast<size_t>(kd + in_channels_) * pw;  // D and C per row.
      const int tile_rows =
          static_cast<int>(std::clamp<size_t>(budget / row_floats, 1, ph));
      float* d = arena.Alloc(static_cast<size_t>(tile_rows) * kd * pw);
      float* c = arena.Alloc(static_cast<size_t>(tile_rows) * in_channels_ *
                             pw);
      for (int jy0 = 0; jy0 < ph; jy0 += tile_rows) {
        const int rows = std::min(tile_rows, ph - jy0);
        const int n = rows * pw;
        float* drow = d;
        for (int oc = 0; oc < out_channels_; ++oc) {
          const float* g =
              grad_output.data() + static_cast<size_t>(oc) * oh * ow;
          for (int ky = ky_hi; ky >= 0; ky -= st) {
            const int oy0 = (py + pad - ky) / st;  // Exact division.
            for (int kx = kx_hi; kx >= 0; kx -= st) {
              const int ox0 = (px + pad - kx) / st;
              const int jx_lo = std::clamp(-ox0, 0, pw);
              const int jx_hi = std::clamp(ow - ox0, jx_lo, pw);
              for (int r = 0; r < rows; ++r, drow += pw) {
                const int oy = oy0 + jy0 + r;
                if (oy < 0 || oy >= oh) {
                  std::fill(drow, drow + pw, 0.0f);
                  continue;
                }
                std::fill(drow, drow + jx_lo, 0.0f);
                if (jx_hi > jx_lo) {
                  std::copy_n(g + static_cast<size_t>(oy) * ow + ox0 + jx_lo,
                              jx_hi - jx_lo, drow + jx_lo);
                }
                std::fill(drow + jx_hi, drow + pw, 0.0f);
              }
            }
          }
        }
        GemmBias(in_channels_, n, kd, wt, d, nullptr, c);
        for (int ic = 0; ic < in_channels_; ++ic) {
          for (int r = 0; r < rows; ++r) {
            const float* src = c + static_cast<size_t>(ic) * n +
                               static_cast<size_t>(r) * pw;
            float* out = grad_in.data() +
                         (static_cast<size_t>(ic) * h + py +
                          static_cast<size_t>(st) * (jy0 + r)) *
                             w +
                         px;
            for (int jx = 0; jx < pw; ++jx) out[st * jx] = src[jx];
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor Conv2d::BackwardReference(const Tensor& input,
                                 const Tensor& grad_output) {
  CheckBackwardShapes(input, grad_output, in_channels_, out_channels_,
                      stride_);
  const int h = input.dim(1), w = input.dim(2);
  const int oh = grad_output.dim(1), ow = grad_output.dim(2);
  const int pad = kernel_ / 2;

  Tensor grad_in({in_channels_, h, w});
  float* gw = weight_.grad.data();
  const float* wdata = weight_.value.data();
  for (int oc = 0; oc < out_channels_; ++oc) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const float go = grad_output.at3(oc, oy, ox);
        if (go == 0.0f) continue;
        bias_.grad[oc] += go;
        const int iy0 = oy * stride_ - pad;
        const int ix0 = ox * stride_ - pad;
        for (int ic = 0; ic < in_channels_; ++ic) {
          const size_t wbase =
              (static_cast<size_t>(oc) * in_channels_ + ic) * kernel_ *
              kernel_;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            const int kx_lo = std::max(0, -ix0);
            const int kx_hi = std::min(kernel_, w - ix0);
            const float* in_row = input.data() +
                                  (static_cast<size_t>(ic) * h + iy) * w + ix0;
            float* gin_row = grad_in.data() +
                             (static_cast<size_t>(ic) * h + iy) * w + ix0;
            const size_t wrow = wbase + static_cast<size_t>(ky) * kernel_;
            for (int kx = kx_lo; kx < kx_hi; ++kx) {
              gw[wrow + kx] += go * in_row[kx];
              gin_row[kx] += go * wdata[wrow + kx];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void Conv2d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

// --- Linear -----------------------------------------------------------------

Linear::Linear(int in_features, int out_features, Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor::RandomHe({out_features, in_features}, in_features, rng)),
      bias_(Tensor::Zeros({out_features})) {}

Tensor Linear::Forward(const Tensor& input) {
  Tensor out = Infer(input);
  cache_.push_back(input);
  return out;
}

std::vector<float> Linear::TransposedWeight() const {
  std::vector<float> wt(static_cast<size_t>(in_features_) * out_features_);
  Transpose(weight_.value.data(), out_features_, in_features_, wt.data());
  return wt;
}

Tensor Linear::InferRows(const Tensor& input, const float* weight_t) const {
  // Batched rows: C (N x out) = X (N x in) * W^T (in x out), bias folded
  // in as the per-column accumulator start — bit-identical per row to the
  // 1-D path (float multiply is commutative bitwise and the k order
  // matches).
  OTIF_CHECK_EQ(input.ndim(), 2);
  OTIF_CHECK_EQ(input.dim(1), in_features_);
  const int nb = input.dim(0);
  Tensor out = Tensor::Uninitialized({nb, out_features_});
  GemmBias(nb, out_features_, in_features_, input.data(), weight_t,
           bias_.value.data(), out.data());
  return out;
}

Tensor Linear::Infer(const Tensor& input) const {
  OTIF_CHECK_EQ(input.size(), in_features_);
  Tensor out({out_features_});
  const float* wdata = weight_.value.data();
  for (int o = 0; o < out_features_; ++o) {
    float acc = bias_.value[o];
    const float* wrow = wdata + static_cast<size_t>(o) * in_features_;
    for (int i = 0; i < in_features_; ++i) acc += wrow[i] * input[i];
    out[o] = acc;
  }
  return out;
}

Tensor Linear::Backward(const Tensor& grad_output) {
  OTIF_CHECK(!cache_.empty());
  const Tensor input = std::move(cache_.back());
  cache_.pop_back();
  OTIF_CHECK_EQ(grad_output.size(), out_features_);
  Tensor grad_in({in_features_});
  float* gw = weight_.grad.data();
  const float* wdata = weight_.value.data();
  for (int o = 0; o < out_features_; ++o) {
    const float go = grad_output[o];
    bias_.grad[o] += go;
    float* gw_row = gw + static_cast<size_t>(o) * in_features_;
    const float* wrow = wdata + static_cast<size_t>(o) * in_features_;
    for (int i = 0; i < in_features_; ++i) {
      gw_row[i] += go * input[i];
      grad_in[i] += go * wrow[i];
    }
  }
  return grad_in;
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

// --- Elementwise activations -------------------------------------------------

Tensor Relu::Forward(const Tensor& input) {
  Tensor out = Infer(input);
  cache_.push_back(out);
  return out;
}

Tensor Relu::Infer(const Tensor& input) const {
  Tensor out = input;
  for (int64_t i = 0; i < out.size(); ++i) out[i] = std::max(0.0f, out[i]);
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  OTIF_CHECK(!cache_.empty());
  const Tensor out = std::move(cache_.back());
  cache_.pop_back();
  Tensor grad_in = grad_output;
  for (int64_t i = 0; i < grad_in.size(); ++i) {
    if (out[i] <= 0.0f) grad_in[i] = 0.0f;
  }
  return grad_in;
}

// --- GRU ---------------------------------------------------------------------

namespace {

// y = W x + U h + b, all 1-D.
Tensor Affine2(const Parameter& w, const Parameter& u, const Parameter& b,
               const Tensor& x, const Tensor& h) {
  const int out_dim = b.value.dim(0);
  const int in_dim = static_cast<int>(x.size());
  const int hid_dim = static_cast<int>(h.size());
  Tensor y({out_dim});
  for (int o = 0; o < out_dim; ++o) {
    float acc = b.value[o];
    const float* wrow = w.value.data() + static_cast<size_t>(o) * in_dim;
    for (int i = 0; i < in_dim; ++i) acc += wrow[i] * x[i];
    const float* urow = u.value.data() + static_cast<size_t>(o) * hid_dim;
    for (int i = 0; i < hid_dim; ++i) acc += urow[i] * h[i];
    y[o] = acc;
  }
  return y;
}

// Accumulates gradients for y = W x + U h + b given dL/dy; adds into
// grad_x/grad_h.
void Affine2Backward(Parameter* w, Parameter* u, Parameter* b,
                     const Tensor& x, const Tensor& h, const Tensor& grad_y,
                     Tensor* grad_x, Tensor* grad_h) {
  const int out_dim = b->value.dim(0);
  const int in_dim = static_cast<int>(x.size());
  const int hid_dim = static_cast<int>(h.size());
  for (int o = 0; o < out_dim; ++o) {
    const float gy = grad_y[o];
    if (gy == 0.0f) continue;
    b->grad[o] += gy;
    float* gw = w->grad.data() + static_cast<size_t>(o) * in_dim;
    const float* wrow = w->value.data() + static_cast<size_t>(o) * in_dim;
    for (int i = 0; i < in_dim; ++i) {
      gw[i] += gy * x[i];
      (*grad_x)[i] += gy * wrow[i];
    }
    float* gu = u->grad.data() + static_cast<size_t>(o) * hid_dim;
    const float* urow = u->value.data() + static_cast<size_t>(o) * hid_dim;
    for (int i = 0; i < hid_dim; ++i) {
      gu[i] += gy * h[i];
      (*grad_h)[i] += gy * urow[i];
    }
  }
}

}  // namespace

GruCell::GruCell(int input_size, int hidden_size, Rng* rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      wz_(Tensor::RandomHe({hidden_size, input_size}, input_size, rng)),
      uz_(Tensor::RandomHe({hidden_size, hidden_size}, hidden_size, rng)),
      bz_(Tensor::Zeros({hidden_size})),
      wr_(Tensor::RandomHe({hidden_size, input_size}, input_size, rng)),
      ur_(Tensor::RandomHe({hidden_size, hidden_size}, hidden_size, rng)),
      br_(Tensor::Zeros({hidden_size})),
      wh_(Tensor::RandomHe({hidden_size, input_size}, input_size, rng)),
      uh_(Tensor::RandomHe({hidden_size, hidden_size}, hidden_size, rng)),
      bh_(Tensor::Zeros({hidden_size})) {}

Tensor GruCell::ComputeStep(const Tensor& x, const Tensor& h_prev,
                            StepCache* c) const {
  OTIF_CHECK_EQ(x.size(), input_size_);
  OTIF_CHECK_EQ(h_prev.size(), hidden_size_);
  c->x = x;
  c->h_prev = h_prev;

  c->z = Affine2(wz_, uz_, bz_, x, h_prev);
  for (int64_t i = 0; i < c->z.size(); ++i) c->z[i] = StableSigmoid(c->z[i]);
  c->r = Affine2(wr_, ur_, br_, x, h_prev);
  for (int64_t i = 0; i < c->r.size(); ++i) c->r[i] = StableSigmoid(c->r[i]);

  Tensor rh({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) rh[i] = c->r[i] * h_prev[i];
  c->h_cand = Affine2(wh_, uh_, bh_, x, rh);
  for (int64_t i = 0; i < c->h_cand.size(); ++i) {
    c->h_cand[i] = std::tanh(c->h_cand[i]);
  }

  Tensor h_new({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) {
    h_new[i] = (1.0f - c->z[i]) * h_prev[i] + c->z[i] * c->h_cand[i];
  }
  return h_new;
}

Tensor GruCell::Step(const Tensor& x, const Tensor& h_prev) {
  StepCache c;
  Tensor h_new = ComputeStep(x, h_prev, &c);
  cache_.push_back(std::move(c));
  return h_new;
}

Tensor GruCell::StepInfer(const Tensor& x, const Tensor& h_prev) const {
  StepCache scratch;
  return ComputeStep(x, h_prev, &scratch);
}

GruCell::BatchWeights GruCell::TransposedWeights() const {
  const auto transposed = [](const Parameter& p) {
    std::vector<float> t(static_cast<size_t>(p.value.size()));
    Transpose(p.value.data(), p.value.dim(0), p.value.dim(1), t.data());
    return t;
  };
  return {transposed(wz_), transposed(uz_), transposed(wr_),
          transposed(ur_), transposed(wh_), transposed(uh_)};
}

Tensor GruCell::StepInferBatch(const Tensor& x, const Tensor& h_prev,
                               const BatchWeights& weights) const {
  OTIF_CHECK_EQ(x.ndim(), 2);
  OTIF_CHECK_EQ(x.dim(1), input_size_);
  OTIF_CHECK_EQ(h_prev.ndim(), 2);
  OTIF_CHECK_EQ(h_prev.dim(0), x.dim(0));
  OTIF_CHECK_EQ(h_prev.dim(1), hidden_size_);
  const int n = x.dim(0);
  const size_t cells = static_cast<size_t>(n) * hidden_size_;
  const float* h = h_prev.data();
  ScratchArena& arena = ScratchArena::ThreadLocal();
  ScratchScope scope(arena);

  // out (n x hidden) = x W^T + b, then += hin U^T: Affine2's chain per row.
  auto affine2 = [&](const std::vector<float>& wt, const std::vector<float>& ut,
                     const Parameter& b, const float* hin) {
    float* out = arena.Alloc(cells);
    GemmBias(n, hidden_size_, input_size_, x.data(), wt.data(),
             b.value.data(), out);
    GemmAccumulate(n, hidden_size_, hidden_size_, hin, ut.data(), out);
    return out;
  };

  float* z = affine2(weights.wz, weights.uz, bz_, h);
  for (size_t i = 0; i < cells; ++i) z[i] = StableSigmoid(z[i]);
  float* r = affine2(weights.wr, weights.ur, br_, h);
  for (size_t i = 0; i < cells; ++i) r[i] = StableSigmoid(r[i]);

  float* rh = arena.Alloc(cells);
  for (size_t i = 0; i < cells; ++i) rh[i] = r[i] * h[i];
  float* h_cand = affine2(weights.wh, weights.uh, bh_, rh);
  for (size_t i = 0; i < cells; ++i) h_cand[i] = std::tanh(h_cand[i]);

  Tensor h_new = Tensor::Uninitialized({n, hidden_size_});
  for (size_t i = 0; i < cells; ++i) {
    h_new[static_cast<int64_t>(i)] = (1.0f - z[i]) * h[i] + z[i] * h_cand[i];
  }
  return h_new;
}

std::pair<Tensor, Tensor> GruCell::StepBackward(const Tensor& grad_h_new) {
  OTIF_CHECK(!cache_.empty());
  StepCache c = std::move(cache_.back());
  cache_.pop_back();

  Tensor grad_x({input_size_});
  Tensor grad_h_prev({hidden_size_});

  // h_new = (1 - z) * h_prev + z * h_cand
  Tensor grad_z({hidden_size_});
  Tensor grad_h_cand({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) {
    const float g = grad_h_new[i];
    grad_h_prev[i] += g * (1.0f - c.z[i]);
    grad_z[i] = g * (c.h_cand[i] - c.h_prev[i]);
    grad_h_cand[i] = g * c.z[i];
  }

  // h_cand = tanh(pre_h); pre_h = Wh x + Uh (r*h_prev) + bh
  Tensor grad_pre_h({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) {
    grad_pre_h[i] = grad_h_cand[i] * (1.0f - c.h_cand[i] * c.h_cand[i]);
  }
  Tensor rh({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) rh[i] = c.r[i] * c.h_prev[i];
  Tensor grad_rh({hidden_size_});
  Affine2Backward(&wh_, &uh_, &bh_, c.x, rh, grad_pre_h, &grad_x, &grad_rh);
  Tensor grad_r({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) {
    grad_r[i] = grad_rh[i] * c.h_prev[i];
    grad_h_prev[i] += grad_rh[i] * c.r[i];
  }

  // r = sigmoid(pre_r); pre_r = Wr x + Ur h_prev + br
  Tensor grad_pre_r({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) {
    grad_pre_r[i] = grad_r[i] * c.r[i] * (1.0f - c.r[i]);
  }
  Affine2Backward(&wr_, &ur_, &br_, c.x, c.h_prev, grad_pre_r, &grad_x,
                  &grad_h_prev);

  // z = sigmoid(pre_z); pre_z = Wz x + Uz h_prev + bz
  Tensor grad_pre_z({hidden_size_});
  for (int i = 0; i < hidden_size_; ++i) {
    grad_pre_z[i] = grad_z[i] * c.z[i] * (1.0f - c.z[i]);
  }
  Affine2Backward(&wz_, &uz_, &bz_, c.x, c.h_prev, grad_pre_z, &grad_x,
                  &grad_h_prev);

  return {std::move(grad_x), std::move(grad_h_prev)};
}

void GruCell::CollectParameters(std::vector<Parameter*>* out) {
  for (Parameter* p : {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wh_, &uh_, &bh_}) {
    out->push_back(p);
  }
}

// --- Sequential ---------------------------------------------------------------

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::Forward(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

Tensor Sequential::Infer(const Tensor& input) const {
  Tensor x = input;
  for (const auto& layer : layers_) x = layer->Infer(x);
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

void Sequential::BackwardParams(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (size_t i = layers_.size() - 1; i > 0; --i) g = layers_[i]->Backward(g);
  layers_[0]->BackwardParams(g);
}

void Sequential::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& layer : layers_) layer->CollectParameters(out);
}

// --- Losses --------------------------------------------------------------------

double BceWithLogits(const Tensor& logits, const Tensor& targets,
                     const Tensor* mask, Tensor* grad) {
  OTIF_CHECK_EQ(logits.size(), targets.size());
  if (mask != nullptr) OTIF_CHECK_EQ(mask->size(), logits.size());
  *grad = Tensor(logits.shape());
  double loss = 0.0;
  int64_t count = 0;
  for (int64_t i = 0; i < logits.size(); ++i) {
    if (mask != nullptr && (*mask)[i] == 0.0f) continue;
    const float x = logits[i];
    const float t = targets[i];
    // log(1 + e^-|x|) + max(x, 0) - x*t is the stable BCE-with-logits form.
    loss += std::log1p(std::exp(-std::abs(x))) + std::max(x, 0.0f) - x * t;
    (*grad)[i] = StableSigmoid(x) - t;
    ++count;
  }
  if (count == 0) return 0.0;
  const float inv = 1.0f / static_cast<float>(count);
  grad->Scale(inv);
  return loss / static_cast<double>(count);
}

}  // namespace otif::nn
