#ifndef OTIF_NN_OPTIMIZER_H_
#define OTIF_NN_OPTIMIZER_H_

#include <vector>

#include "nn/layers.h"

namespace otif::nn {

/// Adam optimizer over a fixed set of parameters. Call Step() after each
/// backward pass (gradients are consumed and zeroed). The moment decays,
/// epsilon and the global gradient-norm clip are constants of the
/// optimizer; only the learning rate varies between models.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double learning_rate);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  int64_t steps_taken() const { return step_; }

 private:
  std::vector<Parameter*> params_;
  double learning_rate_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  int64_t step_ = 0;
};

}  // namespace otif::nn

#endif  // OTIF_NN_OPTIMIZER_H_
