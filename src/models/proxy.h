#ifndef OTIF_MODELS_PROXY_H_
#define OTIF_MODELS_PROXY_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "track/types.h"
#include "video/image.h"

namespace otif::models {

/// One proxy input resolution, expressed in native ("world") pixels as in
/// the paper (e.g. 416x256) plus the raster resolution the CNN actually
/// consumes (world / 4 in this scaled-down reproduction). The output grid is
/// raster / 8, i.e. one cell per 32x32 world pixels, matching the paper's
/// cell size.
struct ProxyResolution {
  int world_w = 416;
  int world_h = 256;

  int raster_w() const { return world_w / 4; }
  int raster_h() const { return world_h / 4; }
  int grid_w() const { return raster_w() / 8; }
  int grid_h() const { return raster_h() / 8; }
  /// Pixels the real model would process (drives the cost model).
  double world_pixels() const {
    return static_cast<double>(world_w) * world_h;
  }
};

/// The five input resolutions trained per dataset (paper Sec 3.3 trains
/// "5 resolutions"; inputs like 416x256 down to 160x96).
std::vector<ProxyResolution> StandardProxyResolutions();

/// Segmentation proxy model (paper Sec 3.3): a small CNN that scores every
/// cell of the frame with the likelihood that the cell intersects at least
/// one detection. This is a real network trained with backprop on rasterized
/// frames; its errors are learned, not scripted.
///
/// Architecture: three stride-2 3x3 conv layers (8, 16, 16 channels) with
/// ReLU, then a 3x3 conv to 1 channel of logits. Output grid is 1/8 of the
/// raster input, i.e. one score per 32x32 native-pixel cell.
class ProxyModel {
 public:
  ProxyModel(ProxyResolution resolution, uint64_t seed);

  ProxyModel(const ProxyModel&) = delete;
  ProxyModel& operator=(const ProxyModel&) = delete;

  const ProxyResolution& resolution() const { return resolution_; }

  /// Scores a frame (any resolution; resized to the raster input size).
  /// Returns per-cell probabilities in a (grid_h, grid_w) tensor. The whole
  /// forward pass (staged input, activations, im2col panels) runs in one
  /// scope of the calling thread's ScratchArena; only the returned
  /// probabilities come from the heap. Uses the cache-free inference path,
  /// so concurrent calls on a shared trained model are safe (TrainStep
  /// mutates the model: one model trains on one thread at a time, while
  /// distinct models may train concurrently).
  nn::Tensor Score(const video::Image& frame) const;

  /// Score through Sequential::Infer on heap tensors: the test oracle that
  /// Score must match bit for bit.
  nn::Tensor ScoreReference(const video::Image& frame) const;

  /// Writes `frame`, resized to the raster input size and centered around
  /// zero (pixel - 0.5), to the raster_h x raster_w plane at `dst`. A frame
  /// already at raster size streams through one subtract pass; other sizes
  /// resize straight into `dst` and are centered in place. Every element of
  /// the plane is written.
  void StageInto(const video::Image& frame, float* dst) const;

  /// One training step on (frame, cell labels); returns the BCE loss.
  /// `labels` must be (grid_h, grid_w) with 0/1 entries.
  double TrainStep(const video::Image& frame, const nn::Tensor& labels);

  /// Builds 0/1 cell labels for a frame: cell = 1 iff it intersects any
  /// detection box (native coordinates, frame_w x frame_h).
  nn::Tensor MakeLabels(const track::FrameDetections& detections,
                        double frame_w, double frame_h) const;

  /// Native-coordinate rectangle covered by a cell.
  geom::BBox CellRect(int gx, int gy, double frame_w, double frame_h) const;

  int64_t train_steps() const { return optimizer_->steps_taken(); }

 private:
  nn::Tensor ImageToTensor(const video::Image& frame) const;
  nn::Tensor ForwardLogits(const video::Image& frame);

  ProxyResolution resolution_;
  nn::Sequential net_;
  // net_'s convolutions in order, for Score's pass in the arena; ReLU
  // follows every one but the last.
  std::vector<const nn::Conv2d*> convs_;
  std::unique_ptr<nn::Adam> optimizer_;
};

/// A training sample: rasterized frame plus its cell labels.
struct ProxySample {
  video::Image frame;
  nn::Tensor labels;
};

/// Trains the model for `steps` steps, drawing samples from `sampler`.
/// Returns the mean loss over the final quarter of training.
double TrainProxyModel(ProxyModel* model,
                       const std::function<ProxySample()>& sampler,
                       int steps);

}  // namespace otif::models

#endif  // OTIF_MODELS_PROXY_H_
