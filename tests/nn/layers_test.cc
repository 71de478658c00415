#include "nn/layers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/gemm.h"
#include "nn/optimizer.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace otif::nn {
namespace {

// Numerical gradient of a scalar function with respect to one tensor entry.
double NumericalGrad(const std::function<double()>& f, float* x,
                     double eps = 1e-3) {
  const float orig = *x;
  *x = orig + static_cast<float>(eps);
  const double hi = f();
  *x = orig - static_cast<float>(eps);
  const double lo = f();
  *x = orig;
  return (hi - lo) / (2 * eps);
}

// Scalar loss used for gradient checking: 0.5 * sum(out^2); dL/dout = out.
double HalfSumSquares(const Tensor& t) {
  double s = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) s += 0.5 * t[i] * t[i];
  return s;
}

Tensor RandomTensor(std::vector<int> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return t;
}

// Checks the input gradient of a layer against finite differences.
void CheckInputGradient(Layer* layer, Tensor input, double tol = 2e-2) {
  Tensor out = layer->Forward(input);
  Tensor grad = layer->Backward(out);  // dL/dout = out for HalfSumSquares.
  auto loss = [&]() { return HalfSumSquares(layer->Infer(input)); };
  // Check a sample of entries.
  const int64_t step = std::max<int64_t>(1, input.size() / 24);
  for (int64_t i = 0; i < input.size(); i += step) {
    const double num = NumericalGrad(loss, &input[i]);
    EXPECT_NEAR(grad[i], num, tol) << "input grad mismatch at " << i;
  }
}

// Checks the parameter gradients of a layer against finite differences.
void CheckParameterGradients(Layer* layer, const Tensor& input,
                             double tol = 2e-2) {
  std::vector<Parameter*> params;
  layer->CollectParameters(&params);
  ASSERT_FALSE(params.empty());
  for (Parameter* p : params) p->ZeroGrad();
  Tensor out = layer->Forward(input);
  layer->Backward(out);
  auto loss = [&]() { return HalfSumSquares(layer->Infer(input)); };
  for (Parameter* p : params) {
    const int64_t step = std::max<int64_t>(1, p->value.size() / 16);
    for (int64_t i = 0; i < p->value.size(); i += step) {
      const double num = NumericalGrad(loss, &p->value[i]);
      EXPECT_NEAR(p->grad[i], num, tol)
          << "param grad mismatch at " << i;
    }
  }
}

TEST(StableSigmoidTest, MatchesDefinitionAndIsStable) {
  EXPECT_NEAR(StableSigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(StableSigmoid(2.0f), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  EXPECT_NEAR(StableSigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(StableSigmoid(-100.0f), 0.0f, 1e-6f);
  EXPECT_FALSE(std::isnan(StableSigmoid(-1000.0f)));
}

TEST(TensorTest, ShapeAndAccess) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.ndim(), 3);
  t.at3(1, 2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(t.at3(1, 2, 3), 7.0f);
  EXPECT_FLOAT_EQ(t[23], 7.0f);
}

TEST(TensorTest, AddAndScale) {
  Tensor a({3});
  Tensor b({3});
  a[0] = 1;
  b[0] = 2;
  a.Add(b);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
}

TEST(TensorTest, CopyAssignReusesCapacity) {
  Tensor src({2, 3});
  for (int64_t i = 0; i < src.size(); ++i) src[i] = static_cast<float>(i);
  Tensor dst({4, 4});  // Larger capacity than src needs.
  const float* before = dst.data();
  dst = src;
  EXPECT_EQ(dst.data(), before) << "fitting copy-assign reallocated";
  EXPECT_EQ(dst.shape(), src.shape());
  ASSERT_EQ(dst.size(), src.size());
  for (int64_t i = 0; i < src.size(); ++i) EXPECT_EQ(dst[i], src[i]);
  // Each tensor owns its elements: writing one leaves the other alone.
  dst[0] = -1.0f;
  EXPECT_EQ(src[0], 0.0f);
  const Tensor copy(src);
  EXPECT_NE(copy.data(), src.data());
  EXPECT_EQ(copy[5], 5.0f);
}

TEST(TensorTest, MoveLeavesSourceEmpty) {
  Tensor a({2, 3});
  a[4] = 7.0f;
  const float* data = a.data();
  Tensor b(std::move(a));
  EXPECT_EQ(b.data(), data) << "move construction copied the array";
  EXPECT_EQ(b.shape(), (std::vector<int>{2, 3}));
  EXPECT_EQ(b[4], 7.0f);
  EXPECT_EQ(a.size(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.shape().empty());
  EXPECT_EQ(a.data(), nullptr);

  Tensor c({5});
  c = std::move(b);
  EXPECT_EQ(c.data(), data) << "move assignment copied the array";
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 3}));
  EXPECT_EQ(c[4], 7.0f);
  EXPECT_EQ(b.size(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.shape().empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(TensorTest, RandomHeStatistics) {
  Rng rng(1);
  Tensor t = Tensor::RandomHe({64, 64}, 64, &rng);
  double mean = 0, sq = 0;
  for (int64_t i = 0; i < t.size(); ++i) {
    mean += t[i];
    sq += t[i] * t[i];
  }
  mean /= t.size();
  sq /= t.size();
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(sq), std::sqrt(2.0 / 64), 0.02);
}

TEST(LinearTest, ForwardComputesAffine) {
  Rng rng(2);
  Linear lin(2, 1, &rng);
  std::vector<Parameter*> params;
  lin.CollectParameters(&params);
  params[0]->value[0] = 2.0f;  // w00
  params[0]->value[1] = 3.0f;  // w01
  params[1]->value[0] = 1.0f;  // b0
  Tensor x({2});
  x[0] = 1.0f;
  x[1] = -1.0f;
  Tensor y = lin.Forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f - 3.0f + 1.0f);
}

TEST(LinearTest, GradientCheck) {
  Rng rng(3);
  Linear lin(5, 4, &rng);
  CheckInputGradient(&lin, RandomTensor({5}, &rng));
  CheckParameterGradients(&lin, RandomTensor({5}, &rng));
}

TEST(Conv2dTest, OutputShape) {
  Rng rng(4);
  Conv2d conv(2, 3, 3, 2, &rng);
  Tensor in({2, 9, 11});
  Tensor out = conv.Forward(in);
  EXPECT_EQ(out.dim(0), 3);
  EXPECT_EQ(out.dim(1), 5);   // ceil(9/2)
  EXPECT_EQ(out.dim(2), 6);   // ceil(11/2)
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, &rng);
  std::vector<Parameter*> params;
  conv.CollectParameters(&params);
  params[0]->value.Fill(0.0f);
  params[0]->value[4] = 1.0f;  // Center tap of the 3x3 kernel.
  params[1]->value.Fill(0.0f);
  Tensor in = RandomTensor({1, 6, 7}, &rng);
  Tensor out = conv.Forward(in);
  for (int64_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], in[i], 1e-6f);
  }
}

TEST(Conv2dTest, GradientCheckStride1) {
  Rng rng(6);
  Conv2d conv(2, 2, 3, 1, &rng);
  CheckInputGradient(&conv, RandomTensor({2, 5, 6}, &rng));
  CheckParameterGradients(&conv, RandomTensor({2, 5, 6}, &rng));
}

TEST(Conv2dTest, GradientCheckStride2) {
  Rng rng(7);
  Conv2d conv(1, 2, 3, 2, &rng);
  CheckInputGradient(&conv, RandomTensor({1, 7, 7}, &rng));
  CheckParameterGradients(&conv, RandomTensor({1, 7, 7}, &rng));
}

TEST(ActivationTest, ReluForwardBackward) {
  Relu relu;
  Tensor x({4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -3;
  Tensor y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  Tensor g({4});
  g.Fill(1.0f);
  Tensor gx = relu.Backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0);
  EXPECT_FLOAT_EQ(gx[2], 1);
}

TEST(SequentialTest, ComposesLayersAndGradients) {
  Rng rng(10);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(4, 8, &rng));
  seq.Add(std::make_unique<Relu>());
  seq.Add(std::make_unique<Linear>(8, 3, &rng));
  EXPECT_EQ(seq.num_layers(), 3u);
  CheckInputGradient(&seq, RandomTensor({4}, &rng));
  CheckParameterGradients(&seq, RandomTensor({4}, &rng));
}

TEST(LayerCacheTest, RepeatedForwardBackwardLifo) {
  // Weight sharing: two forwards, then two backwards in reverse order must
  // produce per-call input gradients.
  Rng rng(11);
  Linear lin(3, 3, &rng);
  Tensor a = RandomTensor({3}, &rng);
  Tensor b = RandomTensor({3}, &rng);
  Tensor out_a = lin.Forward(a);
  Tensor out_b = lin.Forward(b);
  Tensor gb = lin.Backward(out_b);  // Pops b's cache.
  Tensor ga = lin.Backward(out_a);  // Pops a's cache.
  // With symmetric loss, grads should differ because inputs differ.
  bool differ = false;
  for (int i = 0; i < 3; ++i) {
    if (std::abs(ga[i] - gb[i]) > 1e-7) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(GruCellTest, StepShapesAndRange) {
  Rng rng(12);
  GruCell gru(3, 5, &rng);
  Tensor x = RandomTensor({3}, &rng);
  Tensor h = Tensor::Zeros({5});
  Tensor h1 = gru.Step(x, h);
  EXPECT_EQ(h1.size(), 5);
  for (int64_t i = 0; i < h1.size(); ++i) {
    EXPECT_GE(h1[i], -1.0f);
    EXPECT_LE(h1[i], 1.0f);
  }
}

TEST(GruCellTest, GradientCheckSingleStep) {
  Rng rng(13);
  GruCell gru(3, 4, &rng);
  Tensor x = RandomTensor({3}, &rng);
  Tensor h = RandomTensor({4}, &rng);
  h.Scale(0.5f);

  std::vector<Parameter*> params;
  gru.CollectParameters(&params);
  EXPECT_EQ(params.size(), 9u);
  for (Parameter* p : params) p->ZeroGrad();

  Tensor h_new = gru.Step(x, h);
  auto [gx, gh] = gru.StepBackward(h_new);  // dL/dh_new = h_new.

  auto loss = [&]() { return HalfSumSquares(gru.StepInfer(x, h)); };
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(gx[i], NumericalGrad(loss, &x[i]), 2e-2) << "x[" << i << "]";
  }
  for (int64_t i = 0; i < h.size(); ++i) {
    EXPECT_NEAR(gh[i], NumericalGrad(loss, &h[i]), 2e-2) << "h[" << i << "]";
  }
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    const int64_t step = std::max<int64_t>(1, p->value.size() / 8);
    for (int64_t i = 0; i < p->value.size(); i += step) {
      EXPECT_NEAR(p->grad[i], NumericalGrad(loss, &p->value[i]), 2e-2)
          << "param " << pi << "[" << i << "]";
    }
  }
}

TEST(GruCellTest, GradientCheckThroughTime) {
  // Two chained steps: backprop through time must route gradients through
  // the hidden state.
  Rng rng(14);
  GruCell gru(2, 3, &rng);
  Tensor x1 = RandomTensor({2}, &rng);
  Tensor x2 = RandomTensor({2}, &rng);
  Tensor h0 = Tensor::Zeros({3});

  Tensor h1 = gru.Step(x1, h0);
  Tensor h2 = gru.Step(x2, h1);
  auto [gx2, gh1] = gru.StepBackward(h2);
  // Add nothing else to gh1: the loss depends on h2 only.
  auto [gx1, gh0] = gru.StepBackward(gh1);

  auto loss = [&]() {
    return HalfSumSquares(gru.StepInfer(x2, gru.StepInfer(x1, h0)));
  };
  for (int64_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(gx1[i], NumericalGrad(loss, &x1[i]), 2e-2) << "x1[" << i << "]";
  }
  for (int64_t i = 0; i < x2.size(); ++i) {
    EXPECT_NEAR(gx2[i], NumericalGrad(loss, &x2[i]), 2e-2) << "x2[" << i << "]";
  }
}

TEST(GruCellTest, StepInferBatchMatchesStepInferBitForBit) {
  // (24, 32) is the tracker net's cell; (7, 19) leaves a partial column
  // strip. n = 1 and 3 run only the GEMM edge tile, n >= 4 also the full
  // 4-row micro-kernel.
  for (const auto& [in, hidden] : {std::pair{24, 32}, std::pair{7, 19}}) {
    Rng rng(static_cast<uint64_t>(in * 100 + hidden));
    GruCell gru(in, hidden, &rng);
    // Nonzero biases too, so the bias cannot start the wrong chain unseen.
    std::vector<Parameter*> params;
    gru.CollectParameters(&params);
    for (Parameter* p : params) {
      for (int64_t i = 0; i < p->value.size(); ++i) {
        p->value[i] += static_cast<float>(rng.Uniform(-0.3, 0.3));
      }
    }
    for (const int n : {1, 3, 4, 5, 17}) {
      const Tensor x = RandomTensor({n, in}, &rng);
      const Tensor h = RandomTensor({n, hidden}, &rng);
      const Tensor got = gru.StepInferBatch(x, h);
      ASSERT_EQ(got.ndim(), 2);
      ASSERT_EQ(got.dim(0), n);
      ASSERT_EQ(got.dim(1), hidden);
      for (int b = 0; b < n; ++b) {
        Tensor x_row({in});
        Tensor h_row({hidden});
        std::copy_n(x.data() + static_cast<int64_t>(b) * in, in,
                    x_row.data());
        std::copy_n(h.data() + static_cast<int64_t>(b) * hidden, hidden,
                    h_row.data());
        const Tensor want = gru.StepInfer(x_row, h_row);
        for (int o = 0; o < hidden; ++o) {
          ASSERT_EQ(want[o], got[static_cast<int64_t>(b) * hidden + o])
              << "cell (" << in << ", " << hidden << ") n " << n << " row "
              << b << " unit " << o;
        }
      }
    }
  }
}

TEST(BceWithLogitsTest, LossAndGradient) {
  Tensor logits({2});
  logits[0] = 0.0f;
  logits[1] = 2.0f;
  Tensor targets({2});
  targets[0] = 1.0f;
  targets[1] = 0.0f;
  Tensor grad;
  const double loss = BceWithLogits(logits, targets, nullptr, &grad);
  // Element 0: -log(sigmoid(0)) = log 2. Element 1: -log(1-sigmoid(2)).
  const double expect0 = std::log(2.0);
  const double expect1 = -std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0)));
  EXPECT_NEAR(loss, (expect0 + expect1) / 2, 1e-6);
  EXPECT_NEAR(grad[0], (0.5 - 1.0) / 2, 1e-6);
  EXPECT_NEAR(grad[1], (1.0 / (1.0 + std::exp(-2.0))) / 2, 1e-6);
}

TEST(BceWithLogitsTest, MaskRestrictsElements) {
  Tensor logits({2});
  logits[0] = 5.0f;
  logits[1] = 0.0f;
  Tensor targets({2});
  targets[0] = 0.0f;
  targets[1] = 1.0f;
  Tensor mask({2});
  mask[0] = 0.0f;
  mask[1] = 1.0f;
  Tensor grad;
  const double loss = BceWithLogits(logits, targets, &mask, &grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
}

TEST(BceWithLogitsTest, EmptyMaskGivesZeroLoss) {
  Tensor logits({2});
  Tensor targets({2});
  Tensor mask({2});  // All zero.
  Tensor grad;
  EXPECT_DOUBLE_EQ(BceWithLogits(logits, targets, &mask, &grad), 0.0);
}

// Inference shapes: the proxy's four convs at the largest resolution, then
// strides, channel counts, kernel sizes and odd spatial dims that exercise
// every tile edge (channel remainders of 1 to 3, row remainders of every
// tile height, partial column tiles), the 88x56 proxy's last conv (a 7x11
// grid), a stride above the kernel size (input rows and columns no tap
// reads) and a 9x9 kernel, whose tap offsets do not fit the kernel's stack
// table.
struct InferCase {
  int in_c, out_c, kernel, stride, h, w;
};
constexpr InferCase kInferCases[] = {
    {1, 8, 3, 2, 64, 104}, {8, 16, 3, 2, 32, 52}, {16, 16, 3, 2, 16, 26},
    {16, 1, 3, 1, 8, 13},  {16, 1, 3, 1, 7, 11},  {8, 6, 3, 2, 14, 22},
    {3, 5, 5, 1, 9, 7},    {2, 4, 3, 3, 10, 11},  {1, 1, 1, 1, 4, 4},
    {4, 3, 3, 2, 5, 5},    {2, 3, 1, 2, 8, 10},   {2, 7, 9, 2, 12, 11},
};

TEST(Conv2dTest, GemmInferMatchesReferenceBitForBit) {
  // Infer, through the direct kernel variant picked for this CPU, must
  // reproduce the naive reference loops exactly (one ascending chain of
  // taps per output; see ConvDirect in gemm.h).
  Rng rng(11);
  for (const InferCase& c : kInferCases) {
    Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, &rng);
    const Tensor input = RandomTensor({c.in_c, c.h, c.w}, &rng);
    const Tensor want = conv.InferReference(input);
    const Tensor got = conv.Infer(input);
    ASSERT_EQ(want.shape(), got.shape());
    for (int64_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i])
          << "ic=" << c.in_c << " oc=" << c.out_c << " k=" << c.kernel
          << " s=" << c.stride << " at " << i;
    }
  }
}

TEST(Conv2dTest, ForwardStillUsesReferencePath) {
  Rng rng(13);
  Conv2d conv(2, 3, 3, 1, &rng);
  const Tensor input = RandomTensor({2, 6, 6}, &rng);
  const Tensor fwd = conv.Forward(input);
  const Tensor ref = conv.InferReference(input);
  for (int64_t i = 0; i < ref.size(); ++i) ASSERT_EQ(ref[i], fwd[i]);
}

// Random upstream gradient in which about a third of the entries are exact
// zeros of either sign: the terms the reference loop skips.
Tensor GradWithZeros(std::vector<int> shape, Rng* rng) {
  Tensor t = RandomTensor(std::move(shape), rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    const uint64_t pick = rng->UniformInt(6);
    if (pick == 0) t[i] = 0.0f;
    if (pick == 1) t[i] = -0.0f;
  }
  return t;
}

// Runs ConvDirect's `isa` variant over every inference case, once on
// random inputs and biases and once on inputs in which about a third of
// the entries are exact zeros of either sign (biases left at +0), and
// checks it bit for bit against the reference loops. Every buffer is an
// exactly-sized heap array: a read past the padded planes leaves its heap
// block, where ASan sees it, whereas inside an arena chunk it would not.
void ExpectDirectMatchesReference(ConvIsa isa) {
  Rng rng(17);
  for (const InferCase& c : kInferCases) {
    for (const bool zeros : {false, true}) {
      Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, &rng);
      std::vector<Parameter*> params;
      conv.CollectParameters(&params);
      Tensor& bias = params[1]->value;
      if (!zeros) {
        for (int64_t i = 0; i < bias.size(); ++i) {
          bias[i] = static_cast<float>(rng.Uniform(-0.5, 0.5));
        }
      }
      const Tensor input = zeros ? GradWithZeros({c.in_c, c.h, c.w}, &rng)
                                 : RandomTensor({c.in_c, c.h, c.w}, &rng);
      const ConvShape shape{c.in_c, c.out_c, c.kernel, c.stride, c.h, c.w};
      std::vector<float> scratch(ConvDirectScratchFloats(shape));
      std::vector<float> got(static_cast<size_t>(c.out_c) * shape.oh() *
                             shape.ow());
      ConvDirectWith(isa, shape, ConvInputMap::kIdentity, input.data(),
                     params[0]->value.data(), bias.data(), scratch.data(),
                     got.data());
      const Tensor want = conv.InferReference(input);
      ASSERT_EQ(static_cast<size_t>(want.size()), got.size());
      for (int64_t i = 0; i < want.size(); ++i) {
        // Compare bits: ASSERT_EQ would let -0 pass for +0.
        ASSERT_EQ(std::signbit(want[i]), std::signbit(got[i]))
            << "ic=" << c.in_c << " oc=" << c.out_c << " k=" << c.kernel
            << " s=" << c.stride << " zeros=" << zeros << " at " << i;
        ASSERT_EQ(want[i], got[i])
            << "ic=" << c.in_c << " oc=" << c.out_c << " k=" << c.kernel
            << " s=" << c.stride << " zeros=" << zeros << " at " << i;
      }
    }
  }
}

TEST(ConvDirectTest, BaselineMatchesReferenceBitForBit) {
  ExpectDirectMatchesReference(ConvIsa::kBaseline);
}

TEST(ConvDirectTest, Avx2MatchesReferenceBitForBit) {
  if (ConvDirectIsa() < ConvIsa::kAvx2) {
    GTEST_SKIP() << "this CPU (or build) has no AVX2";
  }
  ExpectDirectMatchesReference(ConvIsa::kAvx2);
}

TEST(ConvDirectTest, Avx512MatchesReferenceBitForBit) {
  if (ConvDirectIsa() < ConvIsa::kAvx512) {
    GTEST_SKIP() << "this CPU (or build) has no AVX-512F";
  }
  ExpectDirectMatchesReference(ConvIsa::kAvx512);
}

// Keeps the fast path from going missing: an x86 build on a CPU with
// AVX-512F must pick that variant, and one with AVX2 alone the AVX2 one.
TEST(ConvDirectTest, PicksTheWidestVariantTheCpuHas) {
#if defined(__x86_64__) || defined(__i386__)
  const ConvIsa want = CpuHasAvx512f() ? ConvIsa::kAvx512
                       : CpuHasAvx2()  ? ConvIsa::kAvx2
                                       : ConvIsa::kBaseline;
  EXPECT_EQ(ConvDirectIsa(), want);
#else
  EXPECT_EQ(ConvDirectIsa(), ConvIsa::kBaseline);
#endif
}

// What ConvDirect's fill applies to a sample, written out as the separate
// passes it replaces: Relu::Infer's and ProxyModel::StageInto's.
float ApplyMap(ConvInputMap map, float x) {
  switch (map) {
    case ConvInputMap::kRelu:
      return std::max(0.0f, x);
    case ConvInputMap::kCenter:
      return x - 0.5f;
    case ConvInputMap::kIdentity:
      break;
  }
  return x;
}

// A map folded into the fill must give the bits of that map applied in a
// pass of its own before an identity conv. The inputs hold exact zeros of
// both signs, negatives (which ReLU zeroes), NaNs for ReLU (which it
// zeroes too) and exact 0.5s for the centring (which it makes +0); the
// biases are -0, so an output whose products are all zeros keeps the sign
// that the mapped zeros give it: a ReLU that let -0 through would flip it.
void ExpectFoldedMapsMatchSeparatePasses(ConvIsa isa) {
  Rng rng(19);
  for (const InferCase& c : kInferCases) {
    for (const ConvInputMap map :
         {ConvInputMap::kRelu, ConvInputMap::kCenter}) {
      Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, &rng);
      std::vector<Parameter*> params;
      conv.CollectParameters(&params);
      params[1]->value.Fill(-0.0f);
      Tensor input = RandomTensor({c.in_c, c.h, c.w}, &rng);
      for (int64_t i = 0; i < input.size(); ++i) {
        const uint64_t pick = rng.UniformInt(5);
        if (map == ConvInputMap::kCenter) {
          input[i] = pick < 2 ? 0.5f : static_cast<float>(rng.NextDouble());
        } else if (pick == 0) {
          input[i] = 0.0f;
        } else if (pick == 1) {
          input[i] = -0.0f;
        } else if (pick == 2) {
          input[i] = std::nanf("");
        }
      }
      Tensor mapped = input;
      for (int64_t i = 0; i < mapped.size(); ++i) {
        mapped[i] = ApplyMap(map, mapped[i]);
      }
      const ConvShape shape{c.in_c, c.out_c, c.kernel, c.stride, c.h, c.w};
      std::vector<float> scratch(ConvDirectScratchFloats(shape));
      const size_t n = static_cast<size_t>(c.out_c) * shape.oh() * shape.ow();
      std::vector<float> want(n), got(n);
      const float* w = params[0]->value.data();
      const float* b = params[1]->value.data();
      ConvDirectWith(isa, shape, ConvInputMap::kIdentity, mapped.data(), w, b,
                     scratch.data(), want.data());
      ConvDirectWith(isa, shape, map, input.data(), w, b, scratch.data(),
                     got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(want[i]),
                  std::bit_cast<uint32_t>(got[i]))
            << "map=" << static_cast<int>(map) << " ic=" << c.in_c
            << " oc=" << c.out_c << " k=" << c.kernel << " s=" << c.stride
            << " at " << i;
      }
    }
  }
}

TEST(ConvDirectTest, FoldedMapsMatchSeparatePasses) {
  for (const ConvIsa isa :
       {ConvIsa::kBaseline, ConvIsa::kAvx2, ConvIsa::kAvx512}) {
    if (isa > ConvDirectIsa()) continue;
    SCOPED_TRACE(static_cast<int>(isa));
    ExpectFoldedMapsMatchSeparatePasses(isa);
  }
}

// Fills every parameter gradient with random values: gradients already
// held on entry, as after an earlier Backward of a shared layer.
void RandomizeGrads(Layer* layer, Rng* rng) {
  std::vector<Parameter*> params;
  layer->CollectParameters(&params);
  for (Parameter* p : params) {
    for (int64_t i = 0; i < p->grad.size(); ++i) {
      p->grad[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
}

void ExpectBitIdentical(const Tensor& want, const Tensor& got,
                        const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << what << " at " << i;
  }
}

void ExpectSameParameters(Layer* want, Layer* got, bool grads,
                          const std::string& what) {
  std::vector<Parameter*> pw, pg;
  want->CollectParameters(&pw);
  got->CollectParameters(&pg);
  ASSERT_EQ(pw.size(), pg.size()) << what;
  for (size_t i = 0; i < pw.size(); ++i) {
    const std::string tag = what + " param " + std::to_string(i);
    ExpectBitIdentical(pw[i]->value, pg[i]->value, tag + " value");
    if (grads) ExpectBitIdentical(pw[i]->grad, pg[i]->grad, tag + " grad");
  }
}

TEST(Conv2dTest, BackwardMatchesReferenceBitForBit) {
  // The GEMM backward must reproduce the naive loops' input, weight and
  // bias gradients exactly, over the GEMM inference case table plus
  // ragged last tiles of D (stride 1 and 2) and a kernel smaller than the
  // stride (pixels no output reaches), with exact zeros in the upstream
  // gradient and gradients already held on entry.
  Rng rng(21);
  struct Case {
    int in_c, out_c, kernel, stride, h, w;
  };
  const Case cases[] = {
      {1, 8, 3, 2, 64, 104}, {8, 16, 3, 2, 32, 52}, {16, 16, 3, 2, 16, 26},
      {16, 1, 3, 1, 8, 13},  {3, 5, 5, 1, 9, 7},    {2, 4, 3, 3, 10, 11},
      {1, 1, 1, 1, 4, 4},    {4, 3, 3, 2, 5, 5},    {3, 8, 3, 1, 61, 97},
      {8, 16, 3, 2, 120, 200}, {2, 3, 1, 2, 7, 9},
  };
  for (const Case& c : cases) {
    const std::string tag = "ic=" + std::to_string(c.in_c) +
                            " oc=" + std::to_string(c.out_c) +
                            " k=" + std::to_string(c.kernel) +
                            " s=" + std::to_string(c.stride) +
                            " h=" + std::to_string(c.h);
    const uint64_t seed = rng.NextUint64();
    Rng init_a(seed), init_b(seed);
    Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, &init_a);
    Conv2d ref(c.in_c, c.out_c, c.kernel, c.stride, &init_b);
    const uint64_t grad_seed = rng.NextUint64();
    Rng grads_a(grad_seed), grads_b(grad_seed);
    RandomizeGrads(&conv, &grads_a);
    RandomizeGrads(&ref, &grads_b);

    const Tensor input = RandomTensor({c.in_c, c.h, c.w}, &rng);
    const Tensor out = conv.Forward(input);
    const Tensor grad_out = GradWithZeros(out.shape(), &rng);
    const Tensor got = conv.Backward(grad_out);
    const Tensor want = ref.BackwardReference(input, grad_out);
    ExpectBitIdentical(want, got, tag + " input grad");
    ExpectSameParameters(&ref, &conv, /*grads=*/true, tag);
  }

  // LIFO weight sharing: two Forwards, then two Backwards in reverse order.
  // The second Backward starts its parameter chains from the gradients the
  // first one left, which must equal the reference's exactly.
  for (const int stride : {1, 2}) {
    Rng init_a(31), init_b(31);
    Conv2d conv(3, 8, 3, stride, &init_a);
    Conv2d ref(3, 8, 3, stride, &init_b);
    Rng grads_a(32), grads_b(32);
    RandomizeGrads(&conv, &grads_a);
    RandomizeGrads(&ref, &grads_b);

    Rng rng(33);
    const Tensor a = RandomTensor({3, 21, 34}, &rng);
    const Tensor b = RandomTensor({3, 21, 34}, &rng);
    const Tensor out_a = conv.Forward(a);
    const Tensor out_b = conv.Forward(b);
    const Tensor grad_a = GradWithZeros(out_a.shape(), &rng);
    const Tensor grad_b = GradWithZeros(out_b.shape(), &rng);
    const std::string tag = "stride " + std::to_string(stride);
    ExpectBitIdentical(ref.BackwardReference(b, grad_b), conv.Backward(grad_b),
                       tag + " second input grad");
    ExpectBitIdentical(ref.BackwardReference(a, grad_a), conv.Backward(grad_a),
                       tag + " first input grad");
    ExpectSameParameters(&ref, &conv, /*grads=*/true, tag);
  }
}

// A Conv2d whose training runs through the naive oracle loops.
class ReferenceConv : public Layer {
 public:
  ReferenceConv(int in_c, int out_c, int kernel, int stride, Rng* rng)
      : conv_(in_c, out_c, kernel, stride, rng) {}

  Tensor Forward(const Tensor& input) override {
    cache_.push_back(input);
    return conv_.InferReference(input);
  }
  Tensor Infer(const Tensor& input) const override {
    return conv_.InferReference(input);
  }
  Tensor Backward(const Tensor& grad_output) override {
    const Tensor input = std::move(cache_.back());
    cache_.pop_back();
    return conv_.BackwardReference(input, grad_output);
  }
  void CollectParameters(std::vector<Parameter*>* out) override {
    conv_.CollectParameters(out);
  }

 private:
  Conv2d conv_;
  std::vector<Tensor> cache_;
};

// The proxy model's stack (models::ProxyModel): three stride-2 3x3 convs
// with ReLU, then a 3x3 conv to one channel of logits.
template <typename Conv>
void BuildProxyStack(uint64_t seed, Sequential* net) {
  Rng rng(seed);
  net->Add(std::make_unique<Conv>(1, 8, 3, 2, &rng));
  net->Add(std::make_unique<Relu>());
  net->Add(std::make_unique<Conv>(8, 16, 3, 2, &rng));
  net->Add(std::make_unique<Relu>());
  net->Add(std::make_unique<Conv>(16, 16, 3, 2, &rng));
  net->Add(std::make_unique<Relu>());
  net->Add(std::make_unique<Conv>(16, 1, 3, 1, &rng));
}

TEST(Conv2dTest, TrainingMatchesReferenceLayersOverAdamSteps) {
  // 20 Adam steps of the proxy stack at its largest raster (64x104): every
  // parameter must stay bitwise equal to training through the oracle, both
  // for a full Backward and for BackwardParams, which skips the first
  // conv's input gradient as ProxyModel::TrainStep does.
  Sequential gemm_net, params_net, ref_net;
  BuildProxyStack<Conv2d>(41, &gemm_net);
  BuildProxyStack<Conv2d>(41, &params_net);
  BuildProxyStack<ReferenceConv>(41, &ref_net);
  std::vector<Parameter*> gemm_params, params_params, ref_params;
  gemm_net.CollectParameters(&gemm_params);
  params_net.CollectParameters(&params_params);
  ref_net.CollectParameters(&ref_params);
  Adam gemm_adam(gemm_params, 2e-3);
  Adam params_adam(params_params, 2e-3);
  Adam ref_adam(ref_params, 2e-3);

  Rng rng(42);
  for (int step = 0; step < 20; ++step) {
    const Tensor input = RandomTensor({1, 64, 104}, &rng);
    Tensor labels({1, 8, 13});
    for (int64_t i = 0; i < labels.size(); ++i) {
      labels[i] = rng.UniformInt(3) == 0 ? 1.0f : 0.0f;
    }
    Tensor gemm_grad, params_grad, ref_grad;
    const double gemm_loss = BceWithLogits(gemm_net.Forward(input), labels,
                                           nullptr, &gemm_grad);
    const double params_loss = BceWithLogits(params_net.Forward(input),
                                             labels, nullptr, &params_grad);
    const double ref_loss =
        BceWithLogits(ref_net.Forward(input), labels, nullptr, &ref_grad);
    ASSERT_EQ(ref_loss, gemm_loss) << "step " << step;
    ASSERT_EQ(ref_loss, params_loss) << "step " << step;
    gemm_net.Backward(gemm_grad);
    params_net.BackwardParams(params_grad);
    ref_net.Backward(ref_grad);
    gemm_adam.Step();
    params_adam.Step();
    ref_adam.Step();
  }
  ExpectSameParameters(&ref_net, &gemm_net, /*grads=*/false, "after 20 steps");
  ExpectSameParameters(&ref_net, &params_net, /*grads=*/false,
                       "BackwardParams after 20 steps");
}

TEST(LinearTest, BatchedInferMatchesPerRowExactly) {
  Rng rng(14);
  const int in = 37, out = 19, nb = 5;
  Linear linear(in, out, &rng);
  Tensor batch({nb, in});
  std::vector<Tensor> rows;
  for (int b = 0; b < nb; ++b) {
    Tensor row = RandomTensor({in}, &rng);
    std::copy(row.data(), row.data() + in,
              batch.data() + static_cast<int64_t>(b) * in);
    rows.push_back(std::move(row));
  }
  const Tensor got = linear.Infer(batch);
  ASSERT_EQ(got.ndim(), 2);
  ASSERT_EQ(got.dim(0), nb);
  ASSERT_EQ(got.dim(1), out);
  for (int b = 0; b < nb; ++b) {
    const Tensor want = linear.Infer(rows[static_cast<size_t>(b)]);
    for (int o = 0; o < out; ++o) {
      ASSERT_EQ(want[o], got[static_cast<int64_t>(b) * out + o])
          << "row " << b << " out " << o;
    }
  }
}

}  // namespace
}  // namespace otif::nn
