#include "models/proxy.h"

#include <algorithm>
#include <memory>

#include "mem/view.h"
#include "nn/arena.h"
#include "util/logging.h"
#include "util/rng.h"

namespace otif::models {

std::vector<ProxyResolution> StandardProxyResolutions() {
  return {{416, 256}, {352, 224}, {288, 160}, {224, 128}, {160, 96}};
}

ProxyModel::ProxyModel(ProxyResolution resolution, uint64_t seed)
    : resolution_(resolution) {
  OTIF_CHECK_EQ(resolution_.world_w % 32, 0);
  OTIF_CHECK_EQ(resolution_.world_h % 32, 0);
  Rng rng(seed);
  const auto add_conv = [&](int in, int out, int stride) {
    auto conv = std::make_unique<nn::Conv2d>(in, out, 3, stride, &rng);
    convs_.push_back(conv.get());
    net_.Add(std::move(conv));
  };
  add_conv(1, 8, 2);
  net_.Add(std::make_unique<nn::Relu>());
  add_conv(8, 16, 2);
  net_.Add(std::make_unique<nn::Relu>());
  add_conv(16, 16, 2);
  net_.Add(std::make_unique<nn::Relu>());
  add_conv(16, 1, 1);
  std::vector<nn::Parameter*> params;
  net_.CollectParameters(&params);
  nn::Adam::Options opts;
  opts.learning_rate = 2e-3;
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), opts);
}

void ProxyModel::StageInto(const video::Image& frame, float* dst) const {
  OTIF_CHECK(!frame.empty());
  OTIF_CHECK(dst != nullptr);
  const int rh = resolution_.raster_h(), rw = resolution_.raster_w();
  const size_t plane = static_cast<size_t>(rh) * rw;
  if (frame.width() == rw && frame.height() == rh) {
    // Already at raster size: stream pixels straight into `dst`, centering
    // around zero for conditioning. No copy, no temporary.
    const float* src = frame.data();
    for (size_t i = 0; i < plane; ++i) dst[i] = src[i] - 0.5f;
  } else {
    // Resize directly into `dst`, then center in place. Same float op
    // order as resize-then-subtract through a temporary image.
    frame.ResizedInto(mem::ImageView{dst, rw, rh, rw});
    for (size_t i = 0; i < plane; ++i) dst[i] -= 0.5f;
  }
}

nn::Tensor ProxyModel::ImageToTensor(const video::Image& frame) const {
  nn::Tensor t = nn::Tensor::Uninitialized(
      {1, resolution_.raster_h(), resolution_.raster_w()});
  StageInto(frame, t.data());
  return t;
}

nn::Tensor ProxyModel::ForwardLogits(const video::Image& frame) {
  nn::Tensor logits = net_.Forward(ImageToTensor(frame));
  OTIF_CHECK_EQ(logits.dim(0), 1);
  OTIF_CHECK_EQ(logits.dim(1), resolution_.grid_h());
  OTIF_CHECK_EQ(logits.dim(2), resolution_.grid_w());
  return logits;
}

nn::Tensor ProxyModel::Score(const video::Image& frame) const {
  // The same layers as ScoreReference's net_.Infer, with every
  // intermediate in the arena: the staged input, each conv's output
  // (ReLU applied in place) and, in InferInto's inner scope, its im2col
  // panel. At the largest resolution the peak is conv2's, 56,576 floats,
  // which fits the arena's first chunk.
  nn::ScratchArena& arena = nn::ScratchArena::ThreadLocal();
  nn::ScratchScope scope(arena);
  int h = resolution_.raster_h(), w = resolution_.raster_w();
  float* x = arena.Alloc(static_cast<size_t>(h) * w);
  StageInto(frame, x);
  for (size_t i = 0; i < convs_.size(); ++i) {
    const nn::Conv2d& conv = *convs_[i];
    const int oh = (h + conv.stride() - 1) / conv.stride();
    const int ow = (w + conv.stride() - 1) / conv.stride();
    const size_t n = static_cast<size_t>(conv.out_channels()) * oh * ow;
    float* y = arena.Alloc(n);
    conv.InferInto(x, h, w, oh, ow, y);
    if (i + 1 < convs_.size()) {
      for (size_t j = 0; j < n; ++j) y[j] = std::max(0.0f, y[j]);
    }
    x = y;
    h = oh;
    w = ow;
  }
  OTIF_CHECK_EQ(h, resolution_.grid_h());
  OTIF_CHECK_EQ(w, resolution_.grid_w());
  nn::Tensor probs = nn::Tensor::Uninitialized({h, w});
  for (int64_t i = 0; i < probs.size(); ++i) {
    probs[i] = nn::StableSigmoid(x[i]);
  }
  return probs;
}

nn::Tensor ProxyModel::ScoreReference(const video::Image& frame) const {
  nn::Tensor logits = net_.Infer(ImageToTensor(frame));
  OTIF_CHECK_EQ(logits.dim(0), 1);
  OTIF_CHECK_EQ(logits.dim(1), resolution_.grid_h());
  OTIF_CHECK_EQ(logits.dim(2), resolution_.grid_w());
  nn::Tensor probs({resolution_.grid_h(), resolution_.grid_w()});
  for (int64_t i = 0; i < probs.size(); ++i) {
    probs[i] = nn::StableSigmoid(logits[i]);
  }
  return probs;
}

double ProxyModel::TrainStep(const video::Image& frame,
                             const nn::Tensor& labels) {
  OTIF_CHECK_EQ(labels.dim(0), resolution_.grid_h());
  OTIF_CHECK_EQ(labels.dim(1), resolution_.grid_w());
  nn::Tensor logits = ForwardLogits(frame);
  // Reshape labels to the logits' (1, H, W) shape for the loss.
  nn::Tensor target({1, resolution_.grid_h(), resolution_.grid_w()});
  for (int64_t i = 0; i < labels.size(); ++i) target[i] = labels[i];
  nn::Tensor grad;
  const double loss = nn::BceWithLogits(logits, target, nullptr, &grad);
  net_.Backward(grad);
  optimizer_->Step();
  return loss;
}

geom::BBox ProxyModel::CellRect(int gx, int gy, double frame_w,
                                double frame_h) const {
  const double cell_w = frame_w / resolution_.grid_w();
  const double cell_h = frame_h / resolution_.grid_h();
  return geom::BBox::FromCorners(gx * cell_w, gy * cell_h, (gx + 1) * cell_w,
                                 (gy + 1) * cell_h);
}

nn::Tensor ProxyModel::MakeLabels(const track::FrameDetections& detections,
                                  double frame_w, double frame_h) const {
  nn::Tensor labels({resolution_.grid_h(), resolution_.grid_w()});
  for (int gy = 0; gy < resolution_.grid_h(); ++gy) {
    for (int gx = 0; gx < resolution_.grid_w(); ++gx) {
      const geom::BBox cell = CellRect(gx, gy, frame_w, frame_h);
      for (const track::Detection& d : detections) {
        if (cell.Intersects(d.box)) {
          labels[static_cast<int64_t>(gy) * resolution_.grid_w() + gx] = 1.0f;
          break;
        }
      }
    }
  }
  return labels;
}

double TrainProxyModel(ProxyModel* model,
                       const std::function<ProxySample()>& sampler,
                       int steps) {
  OTIF_CHECK_GT(steps, 0);
  double tail_loss = 0.0;
  int tail_count = 0;
  const int tail_start = steps - steps / 4;
  for (int step = 0; step < steps; ++step) {
    const ProxySample sample = sampler();
    const double loss = model->TrainStep(sample.frame, sample.labels);
    if (step >= tail_start) {
      tail_loss += loss;
      ++tail_count;
    }
  }
  return tail_count > 0 ? tail_loss / tail_count : 0.0;
}

}  // namespace otif::models
