#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <memory>

#include "nn/layers.h"
#include "util/rng.h"

namespace otif::nn {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // Single parameter, loss = 0.5 * (w - 3)^2.
  Parameter w(Tensor::Zeros({1}));
  Adam adam({&w}, 0.1);
  for (int step = 0; step < 300; ++step) {
    w.grad[0] = w.value[0] - 3.0f;
    adam.Step();
  }
  EXPECT_NEAR(w.value[0], 3.0f, 0.05f);
  EXPECT_EQ(adam.steps_taken(), 300);
}

TEST(AdamTest, StepZeroesGradients) {
  Parameter w(Tensor::Zeros({2}));
  Adam adam({&w}, 1e-3);
  w.grad[0] = 1.0f;
  w.grad[1] = -1.0f;
  adam.Step();
  EXPECT_FLOAT_EQ(w.grad[0], 0.0f);
  EXPECT_FLOAT_EQ(w.grad[1], 0.0f);
}

TEST(AdamTest, ClipNormLimitsUpdateDirection) {
  Parameter w(Tensor::Zeros({1}));
  Adam adam({&w}, 1.0);
  w.grad[0] = 1000.0f;
  adam.Step();
  // The first Adam step is ~lr in magnitude whatever the gradient's scale
  // (Adam normalizes by sqrt(v)), but must be finite and negative.
  EXPECT_LT(w.value[0], 0.0f);
  EXPECT_GT(w.value[0], -2.0f);
  // The second step shows the clip: the moments hold the clipped first
  // gradient (norm 5), so a unit gradient now moves w to -1.803. A clip at
  // 10 would give -1.741, and no clip -1.671.
  w.grad[0] = 1.0f;
  adam.Step();
  EXPECT_NEAR(w.value[0], -1.803, 0.005);
}

TEST(AdamTest, TrainsXorMlp) {
  // End-to-end sanity: a 2-layer MLP learns XOR.
  Rng rng(77);
  Sequential mlp;
  mlp.Add(std::make_unique<Linear>(2, 8, &rng));
  mlp.Add(std::make_unique<Relu>());
  mlp.Add(std::make_unique<Linear>(8, 1, &rng));

  std::vector<Parameter*> params;
  mlp.CollectParameters(&params);
  Adam adam(params, 0.02);

  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const float ys[4] = {0, 1, 1, 0};
  for (int epoch = 0; epoch < 500; ++epoch) {
    for (int k = 0; k < 4; ++k) {
      Tensor x({2});
      x[0] = xs[k][0];
      x[1] = xs[k][1];
      Tensor target({1});
      target[0] = ys[k];
      Tensor logits = mlp.Forward(x);
      Tensor grad;
      BceWithLogits(logits, target, nullptr, &grad);
      mlp.Backward(grad);
      adam.Step();
    }
  }
  for (int k = 0; k < 4; ++k) {
    Tensor x({2});
    x[0] = xs[k][0];
    x[1] = xs[k][1];
    Tensor logits = mlp.Infer(x);
    const float p = StableSigmoid(logits[0]);
    EXPECT_NEAR(p, ys[k], 0.2f) << "example " << k;
  }
}

TEST(AdamTest, TrainsGruToRememberFirstInput) {
  // The GRU must learn to output the first element of a length-4 sequence,
  // proving gradient flow through time.
  Rng rng(88);
  GruCell gru(1, 6, &rng);
  Linear head(6, 1, &rng);
  std::vector<Parameter*> params;
  gru.CollectParameters(&params);
  head.CollectParameters(&params);
  Adam adam(params, 0.01);

  Rng data_rng(99);
  double final_loss = 1.0;
  for (int step = 0; step < 1500; ++step) {
    const float first = data_rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    std::vector<float> seq = {first};
    for (int i = 1; i < 4; ++i) {
      seq.push_back(data_rng.Bernoulli(0.5) ? 1.0f : 0.0f);
    }
    Tensor h = Tensor::Zeros({6});
    std::vector<Tensor> hs;
    for (float v : seq) {
      Tensor x({1});
      x[0] = v;
      h = gru.Step(x, h);
    }
    Tensor logits = head.Forward(h);
    Tensor target({1});
    target[0] = first;
    Tensor grad;
    final_loss = BceWithLogits(logits, target, nullptr, &grad);
    Tensor gh = head.Backward(grad);
    for (int i = 0; i < 4; ++i) {
      auto [gx, gh_prev] = gru.StepBackward(gh);
      gh = std::move(gh_prev);
    }
    adam.Step();
  }
  EXPECT_LT(final_loss, 0.3);
}

}  // namespace
}  // namespace otif::nn
