#include "baselines/frame_query.h"

#include <algorithm>

#include "models/detector.h"
#include "util/logging.h"
#include "util/rng.h"

namespace otif::baselines {

FrameTarget CountTarget() {
  return [](const std::vector<geom::BBox>& boxes) {
    return static_cast<double>(boxes.size());
  };
}

FrameTarget RegionTarget(geom::Polygon region) {
  return [region = std::move(region)](const std::vector<geom::BBox>& boxes) {
    int inside = 0;
    for (const geom::BBox& b : boxes) {
      if (region.Contains(b.Center())) ++inside;
    }
    return static_cast<double>(inside);
  };
}

FrameTarget HotSpotTarget(double radius) {
  return [radius](const std::vector<geom::BBox>& boxes) {
    int best = 0;
    for (const geom::BBox& center : boxes) {
      int nearby = 0;
      for (const geom::BBox& other : boxes) {
        if (center.Center().DistanceTo(other.Center()) <= radius) ++nearby;
      }
      best = std::max(best, nearby);
    }
    return static_cast<double>(best);
  };
}

CountRegressor::CountRegressor(uint64_t seed) {
  Rng rng(seed);
  net_.Add(std::make_unique<nn::Conv2d>(1, 8, 3, 2, &rng));
  net_.Add(std::make_unique<nn::Relu>());
  net_.Add(std::make_unique<nn::Conv2d>(8, 16, 3, 2, &rng));
  net_.Add(std::make_unique<nn::Relu>());
  net_.Add(std::make_unique<nn::Conv2d>(16, 16, 3, 2, &rng));
  net_.Add(std::make_unique<nn::Relu>());
  net_.Add(std::make_unique<nn::Conv2d>(16, 1, 3, 1, &rng));
  net_.Add(std::make_unique<nn::Relu>());  // Non-negative cell counts.
  std::vector<nn::Parameter*> params;
  net_.CollectParameters(&params);
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), 2e-3);
}

namespace {

nn::Tensor ImageToTensor32(const video::Image& frame) {
  constexpr int kSide = CountRegressor::kInputSide;
  OTIF_CHECK(frame.width() == kSide && frame.height() == kSide)
      << "count regressor input is " << kSide << "x" << kSide << ", got "
      << frame.width() << "x" << frame.height();
  nn::Tensor t = nn::Tensor::Uninitialized({1, kSide, kSide});
  const float* src = frame.data();
  for (int64_t i = 0; i < t.size(); ++i) t[i] = src[i] - 0.5f;
  return t;
}

double SumCells(const nn::Tensor& grid) {
  double sum = 0.0;
  for (int64_t i = 0; i < grid.size(); ++i) sum += grid[i];
  return sum;
}

}  // namespace

double CountRegressor::Predict(const video::Image& frame32) const {
  return SumCells(net_.Infer(ImageToTensor32(frame32)));
}

double CountRegressor::TrainStep(const video::Image& frame32, double target) {
  nn::Tensor grid = net_.Forward(ImageToTensor32(frame32));
  const double predicted = SumCells(grid);
  const double err = predicted - target;
  // d(0.5 * err^2)/d(cell) = err for every cell (prediction is the sum).
  nn::Tensor grad(grid.shape());
  const float g = static_cast<float>(
      std::clamp(err, -10.0, 10.0) / static_cast<double>(grid.size()));
  for (int64_t i = 0; i < grad.size(); ++i) grad[i] = g;
  net_.Backward(grad);
  optimizer_->Step();
  return 0.5 * err * err;
}

std::vector<geom::BBox> GtVehicleBoxes(const sim::Clip& clip, int frame) {
  std::vector<geom::BBox> boxes;
  for (const sim::VisibleObject& vis : clip.VisibleAt(frame)) {
    const sim::GtObject& obj =
        clip.objects()[static_cast<size_t>(vis.object_index)];
    if (obj.cls == track::ObjectClass::kPedestrian) continue;
    boxes.push_back(obj.states[static_cast<size_t>(vis.state_index)].box);
  }
  return boxes;
}

void VerifyByScore(const std::vector<sim::Clip>& clips,
                   const std::vector<std::pair<double, FrameRef>>& scored,
                   const query::FramePredicate& predicate, int limit,
                   int min_separation_frames, FrameQueryReport* report) {
  OTIF_CHECK(report != nullptr);
  std::vector<std::pair<double, FrameRef>> order = scored;
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  const models::DetectorArch arch =
      models::ArchByName(models::StandardDetectorArchs(), "yolov3");
  models::SimulatedDetector detector(arch);

  std::vector<FrameRef> accepted;
  for (const auto& [score, ref] : order) {
    if (static_cast<int>(accepted.size()) >= limit) break;
    bool separated = true;
    for (const FrameRef& a : accepted) {
      if (a.clip_index == ref.clip_index &&
          std::abs(a.frame - ref.frame) < min_separation_frames) {
        separated = false;
        break;
      }
    }
    if (!separated) continue;
    const sim::Clip& clip = clips[static_cast<size_t>(ref.clip_index)];
    report->query_seconds += models::DetectorWindowSeconds(
        arch, clip.spec().width, clip.spec().height);
    ++report->detector_invocations;
    const track::FrameDetections dets = models::FilterByConfidence(
        detector.Detect(clip, ref.frame, 1.0), 0.4);
    std::vector<geom::BBox> boxes;
    for (const track::Detection& d : dets) {
      if (d.cls != track::ObjectClass::kPedestrian) boxes.push_back(d.box);
    }
    if (predicate.Matches(boxes)) accepted.push_back(ref);
  }
  report->output_frames = accepted;
  std::vector<std::pair<int, int>> pairs;
  for (const FrameRef& ref : accepted) {
    pairs.emplace_back(ref.clip_index, ref.frame);
  }
  report->accuracy = query::LimitQueryAccuracy(clips, pairs, predicate);
}

}  // namespace otif::baselines
