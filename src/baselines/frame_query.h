#ifndef OTIF_BASELINES_FRAME_QUERY_H_
#define OTIF_BASELINES_FRAME_QUERY_H_

#include <functional>
#include <memory>
#include <vector>

#include "models/cost_model.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "query/queries.h"
#include "sim/world.h"
#include "video/image.h"

namespace otif::baselines {

/// Query-specific scalar target for proxy training / kNN scoring: e.g. the
/// number of vehicles (count query), vehicles inside the region, or the
/// largest hot-spot cluster size.
using FrameTarget = std::function<double(const std::vector<geom::BBox>&)>;

/// Target functions matching the three limit-query types (Sec 4.2).
FrameTarget CountTarget();
FrameTarget RegionTarget(geom::Polygon region);
FrameTarget HotSpotTarget(double radius);

/// A frame reference in a multi-clip dataset.
struct FrameRef {
  int clip_index = 0;
  int frame = 0;
};

/// Result of executing one frame-level limit query.
struct FrameQueryReport {
  /// Pre-processing simulated seconds (proxy/embedding pass over the
  /// dataset). Reusable across queries for TASTI, per-query for BlazeIt.
  double preprocess_seconds = 0.0;
  /// Query-specific simulated seconds (scoring + detector verification).
  double query_seconds = 0.0;
  int detector_invocations = 0;
  std::vector<FrameRef> output_frames;
  /// Fraction of output frames whose ground truth satisfies the predicate.
  double accuracy = 1.0;
};

/// BlazeIt-style per-frame count regressor: a small CNN over a 32x32
/// rasterized frame trained with MSE against a query-specific scalar
/// target. Really trained with backprop (training cost is excluded from
/// runtimes, as in the paper).
class CountRegressor {
 public:
  explicit CountRegressor(uint64_t seed);

  CountRegressor(const CountRegressor&) = delete;
  CountRegressor& operator=(const CountRegressor&) = delete;

  /// Predicted target value for a frame rendered at kInputSide x
  /// kInputSide (any other size fails a check).
  double Predict(const video::Image& frame32) const;

  /// One MSE training step on a kInputSide x kInputSide frame; returns the
  /// loss.
  double TrainStep(const video::Image& frame32, double target);

  /// Input side length the regressor consumes.
  static constexpr int kInputSide = 32;

 private:
  nn::Sequential net_;
  std::unique_ptr<nn::Adam> optimizer_;
};

/// Ground-truth vehicle boxes in a frame (shared by target computation).
std::vector<geom::BBox> GtVehicleBoxes(const sim::Clip& clip, int frame);

/// Shared verification loop used by BlazeIt and TASTI: walk frames from
/// highest score to lowest, run the full detector at full resolution on
/// each, accept frames whose *detected* boxes satisfy the predicate
/// (subject to the minimum separation), until `limit` outputs are found or
/// the scores are exhausted. Charges detector time to the report.
void VerifyByScore(const std::vector<sim::Clip>& clips,
                   const std::vector<std::pair<double, FrameRef>>& scored,
                   const query::FramePredicate& predicate, int limit,
                   int min_separation_frames, FrameQueryReport* report);

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_FRAME_QUERY_H_
