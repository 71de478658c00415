#ifndef OTIF_NN_LAYERS_H_
#define OTIF_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "nn/gemm.h"
#include "nn/tensor.h"

namespace otif::nn {

/// A trainable parameter: value plus accumulated gradient.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class for layers. Layers cache forward activations on an internal
/// stack so the same layer may be applied several times in one example
/// (weight sharing across time steps or detections); Backward() must then be
/// called once per Forward() in reverse order (LIFO). Forward() is for
/// training only: a pass that will not be backpropagated calls Infer(), so
/// the cache never holds an activation no Backward() will pop.
///
/// Infer() computes the same output as Forward() without touching the
/// activation cache, so it is const and safe to call concurrently from many
/// threads on a shared trained model. Training mutates the cache and the
/// gradients, so one model trains on one thread at a time; distinct models
/// may train concurrently (Otif::Prepare trains its proxies and tracker net
/// as parallel tasks), since layers share no state between instances.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer; pushes whatever Backward will need onto the cache.
  virtual Tensor Forward(const Tensor& input) = 0;

  /// Inference-only pass: identical output to Forward, no cache mutation.
  virtual Tensor Infer(const Tensor& input) const = 0;

  /// Pops the most recent forward cache, accumulates parameter gradients,
  /// and returns the gradient with respect to that forward's input.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Backward for a caller that has no use for the input gradient (the
  /// first layer of a net over raw input): the same parameter gradients,
  /// bit for bit, and the same cache pop. The default runs Backward and
  /// drops its result; Conv2d skips computing it.
  virtual void BackwardParams(const Tensor& grad_output) {
    Backward(grad_output);
  }

  /// Appends this layer's parameters (may be none).
  virtual void CollectParameters(std::vector<Parameter*>* /*out*/) {}
};

/// 2-D convolution over (C, H, W) tensors with 'same' padding (k odd) and
/// integer stride. Output is (out_channels, ceil(H/stride), ceil(W/stride)).
///
/// Every pass is bit-identical to the naive reference loops, which survive
/// only as test oracles (InferReference, BackwardReference):
///   - Infer() runs InferInto() (the direct conv kernel, gemm.h) into a new
///     tensor; Forward() is Infer() plus the activation cache.
///   - Backward() runs on the im2col + blocked-GEMM engine (gemm.h) and
///     keeps the reference loop's accumulation order for every gradient
///     (bias: output positions ascending; weights: dW = dY * col^T,
///     output positions ascending; input: dX = W~ * D per stride phase,
///     with D's rows ordered (out channel ascending, ky descending, kx
///     descending)). Terms the reference skips (zero upstream gradient,
///     padding taps) enter as +-0 products or are left out, which leaves
///     every accumulator unchanged for finite values (DESIGN.md, "Backward
///     pass").
///   - Backward's scratch comes from the calling thread's ScratchArena in
///     scopes (the weight panel, then tiles of D per stride phase), each
///     sized to fit the arena's first chunk for the proxy models.
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, Rng* rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Infer(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;

  /// ConvDirect over one (in_channels, h, w) image laid out at `input`,
  /// each sample taken as map(sample) (ConvInputMap: ProxyModel::Score
  /// folds its staging and each ReLU in here); writes the (out_channels,
  /// oh, ow) result to `out`, where oh and ow are ceil(h / stride) and
  /// ceil(w / stride). The kernel's zero-padded input planes come from the
  /// calling thread's ScratchArena, in a scope of their own, so `input` and
  /// `out` may live in that arena too. Runs the widest variant the CPU has;
  /// every variant gives the same bits.
  void InferInto(const float* input, int h, int w, int oh, int ow,
                 ConvInputMap map, float* out) const;

  /// Reference (naive loop) inference over a single 3-D input: the ground
  /// truth InferInto must reproduce exactly (tests and benchmarks).
  Tensor InferReference(const Tensor& input) const;

  /// Reference (naive loop) backward for one Forward over `input`: adds
  /// the parameter gradients into the held ones and returns the input
  /// gradient. Test oracle for Backward(); takes its input explicitly, so
  /// it neither reads nor pops the activation cache.
  Tensor BackwardReference(const Tensor& input, const Tensor& grad_output);

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int stride() const { return stride_; }

 private:
  /// Backward's two GEMM halves: dW (+ bias) accumulated into the held
  /// gradients, and dX for an (in_channels, h, w) input.
  void AccumulateParamGrads(const Tensor& input, const Tensor& grad_output);
  Tensor InputGrad(const Tensor& grad_output, int h, int w) const;

  int in_channels_, out_channels_, kernel_, stride_;
  Parameter weight_;  // (out_ch, in_ch, k, k) flattened as 4-D.
  Parameter bias_;    // (out_ch)
  std::vector<Tensor> cache_;  // Cached inputs.
};

/// Fully connected layer over 1-D tensors. Infer() additionally accepts a
/// batched 2-D (N, in_features) input, producing (N, out_features) via one
/// GEMM; each row is bit-identical to the 1-D path.
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, Rng* rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Infer(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;

  /// The trained parameters: weight (out_features, in_features) and bias
  /// (out_features). Read by batched inference that splits the layer's
  /// input into parts (TrackerNet::ScorePairs).
  const Tensor& weight() const { return weight_.value; }
  const Tensor& bias() const { return bias_.value; }

 private:
  int in_features_, out_features_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  std::vector<Tensor> cache_;
};

/// Elementwise ReLU.
class Relu : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Infer(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  std::vector<Tensor> cache_;  // Cached outputs (mask source).
};

/// Gated recurrent unit cell. Step() consumes (x, h) and returns h'; the
/// sequence wrapper below manages hidden-state plumbing. Backward follows
/// the same LIFO discipline as Layer but with a two-gradient signature.
class GruCell {
 public:
  GruCell(int input_size, int hidden_size, Rng* rng);

  int hidden_size() const { return hidden_size_; }
  int input_size() const { return input_size_; }

  /// One recurrence step.
  Tensor Step(const Tensor& x, const Tensor& h_prev);

  /// Inference-only recurrence step: identical output to Step, no cache
  /// mutation (thread-safe on a shared trained cell).
  Tensor StepInfer(const Tensor& x, const Tensor& h_prev) const;

  /// StepInfer over n independent rows: x is (n, input_size) and h_prev is
  /// (n, hidden_size); returns (n, hidden_size). Each gate's
  /// pre-activation is one GemmBias (W x + b) continued by one
  /// GemmAccumulate (+ U h), the same ascending chain as the 1-D path, so
  /// every row is bit-identical to StepInfer on that row. Scratch comes
  /// from the calling thread's ScratchArena.
  Tensor StepInferBatch(const Tensor& x, const Tensor& h_prev) const;

  /// Backward for the most recent Step: given dL/dh', accumulates parameter
  /// gradients and returns (dL/dx, dL/dh_prev).
  std::pair<Tensor, Tensor> StepBackward(const Tensor& grad_h_new);

  void CollectParameters(std::vector<Parameter*>* out);

 private:
  struct StepCache {
    Tensor x, h_prev, z, r, h_cand;
  };

  /// Shared gate math for Step/StepInfer; fills `cache` with the
  /// intermediates Backward needs.
  Tensor ComputeStep(const Tensor& x, const Tensor& h_prev,
                     StepCache* cache) const;

  int input_size_, hidden_size_;
  // Gate weights: each (hidden, input) and (hidden, hidden) plus bias.
  Parameter wz_, uz_, bz_;
  Parameter wr_, ur_, br_;
  Parameter wh_, uh_, bh_;
  std::vector<StepCache> cache_;
};

/// Sequential container of layers (each applied in order).
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  Tensor Forward(const Tensor& input) override;
  Tensor Infer(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;
  /// Backward through every layer, the first by its BackwardParams.
  void BackwardParams(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;

  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Binary cross-entropy with logits, averaged over all elements. `mask`
/// (optional, same shape, 0/1) restricts which elements contribute.
/// Returns the mean loss and writes dL/dlogits into `grad`.
double BceWithLogits(const Tensor& logits, const Tensor& targets,
                     const Tensor* mask, Tensor* grad);

/// Numerically stable logistic function.
float StableSigmoid(float x);

}  // namespace otif::nn

#endif  // OTIF_NN_LAYERS_H_
