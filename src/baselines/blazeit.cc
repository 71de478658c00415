#include "baselines/blazeit.h"

#include "sim/raster.h"
#include "util/rng.h"

namespace otif::baselines {

double BlazeIt::ProxySecondsPerFrame() {
  // 64x64 specialized NN plus decode overhead; calibrated so that a 1-hour
  // 30 fps dataset takes on the order of the paper's ~100 s pre-processing.
  return 1.0e-3;
}

FrameQueryReport BlazeIt::RunQuery(const std::vector<sim::Clip>& train,
                                   const std::vector<sim::Clip>& test,
                                   const FrameTarget& target,
                                   const query::FramePredicate& predicate,
                                   const Options& options, uint64_t seed) {
  CountRegressor regressor(seed);
  Rng rng(seed * 3 + 1);

  // Train the query-specific proxy on ground-truth-derived targets from
  // the training clips (the paper trains on detector outputs; targets here
  // come from the same source as our theta_best labels).
  std::vector<std::unique_ptr<sim::Rasterizer>> train_rasters;
  for (const sim::Clip& clip : train) {
    train_rasters.push_back(std::make_unique<sim::Rasterizer>(&clip));
  }
  for (int step = 0; step < options.train_steps; ++step) {
    const size_t ci = static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(train.size())));
    const int f = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(train[ci].num_frames())));
    const double t = target(GtVehicleBoxes(train[ci], f));
    regressor.TrainStep(
        train_rasters[ci]->Render(f, CountRegressor::kInputSide,
                                  CountRegressor::kInputSide),
        t);
  }

  // Pre-processing: score every test frame (query-specific!).
  FrameQueryReport report;
  std::vector<std::pair<double, FrameRef>> scored;
  for (size_t ci = 0; ci < test.size(); ++ci) {
    sim::Rasterizer raster(&test[ci]);
    for (int f = 0; f < test[ci].num_frames(); ++f) {
      const double score = regressor.Predict(raster.Render(
          f, CountRegressor::kInputSide, CountRegressor::kInputSide));
      scored.push_back({score, FrameRef{static_cast<int>(ci), f}});
      report.preprocess_seconds += ProxySecondsPerFrame();
    }
  }

  // Query execution: verify from the highest-scoring frames down.
  const int separation =
      options.min_separation_sec * (test.empty() ? 30 : test[0].fps());
  VerifyByScore(test, scored, predicate, options.limit, separation, &report);
  return report;
}

}  // namespace otif::baselines
