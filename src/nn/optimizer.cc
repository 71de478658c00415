#include "nn/optimizer.h"

#include <cmath>

namespace otif::nn {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;
/// Gradients are clipped to this global L2 norm.
constexpr double kClipNorm = 5.0;

}  // namespace

Adam::Adam(std::vector<Parameter*> params, double learning_rate)
    : params_(std::move(params)), learning_rate_(learning_rate) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    OTIF_CHECK(p != nullptr);
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++step_;
  // Global-norm clipping stabilizes RNN training.
  double sq = 0.0;
  for (Parameter* p : params_) sq += p->grad.SumSquares();
  const double norm = std::sqrt(sq);
  const double scale = norm > kClipNorm ? kClipNorm / norm : 1.0;
  const double bc1 = 1.0 - std::pow(kBeta1, step_);
  const double bc2 = 1.0 - std::pow(kBeta2, step_);
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    Parameter* p = params_[pi];
    Tensor& m = m_[pi];
    Tensor& v = v_[pi];
    for (int64_t i = 0; i < p->value.size(); ++i) {
      const double g = p->grad[i] * scale;
      m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
      v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
      const double m_hat = m[i] / bc1;
      const double v_hat = v[i] / bc2;
      p->value[i] -= static_cast<float>(learning_rate_ * m_hat /
                                        (std::sqrt(v_hat) + kEpsilon));
    }
    p->ZeroGrad();
  }
}

}  // namespace otif::nn
