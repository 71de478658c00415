#include "baselines/tasti.h"

#include <algorithm>

#include "sim/raster.h"
#include "util/rng.h"

namespace otif::baselines {
namespace {

/// Reference frames averaged by the kNN scoring model.
constexpr size_t kNearestReferences = 8;

}  // namespace

Tasti::Index Tasti::BuildIndex(const std::vector<sim::Clip>& test) {
  Index index;
  for (size_t ci = 0; ci < test.size(); ++ci) {
    sim::Rasterizer raster(&test[ci]);
    for (int f = 0; f < test[ci].num_frames(); ++f) {
      // Embed from a modest render; the cost model charges the 224x224
      // CNN that the real extractor would run.
      index.embeddings.push_back(
          {models::EmbedFrame(raster.Render(f, 64, 36)),
           FrameRef{static_cast<int>(ci), f}});
      index.preprocess_seconds += models::EmbeddingSecondsPerFrame();
    }
  }
  return index;
}

FrameQueryReport Tasti::RunQuery(const Index& index,
                                 const std::vector<sim::Clip>& train,
                                 const std::vector<sim::Clip>& test,
                                 const FrameTarget& target,
                                 const query::FramePredicate& predicate,
                                 const Options& options, uint64_t seed) {
  Rng rng(seed * 7 + 3);
  // Labeled reference set: embeddings + query targets on training frames.
  std::vector<std::pair<models::FrameEmbedding, double>> references;
  std::vector<std::unique_ptr<sim::Rasterizer>> rasters;
  for (const sim::Clip& clip : train) {
    rasters.push_back(std::make_unique<sim::Rasterizer>(&clip));
  }
  for (int i = 0; i < options.reference_frames; ++i) {
    const size_t ci = static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(train.size())));
    const int f = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(train[ci].num_frames())));
    references.push_back(
        {models::EmbedFrame(rasters[ci]->Render(f, 64, 36)),
         target(GtVehicleBoxes(train[ci], f))});
  }

  FrameQueryReport report;
  report.preprocess_seconds = index.preprocess_seconds;

  // Score every indexed frame by kNN regression over the references. The
  // scoring model itself is cheap; charge a small per-frame cost.
  std::vector<std::pair<double, FrameRef>> scored;
  scored.reserve(index.embeddings.size());
  for (const auto& [emb, ref] : index.embeddings) {
    std::vector<std::pair<double, double>> dist_target;
    dist_target.reserve(references.size());
    for (const auto& [remb, t] : references) {
      dist_target.push_back({emb.DistanceTo(remb), t});
    }
    const size_t k = std::min(kNearestReferences, dist_target.size());
    std::partial_sort(dist_target.begin(), dist_target.begin() + k,
                      dist_target.end());
    double score = 0.0;
    for (size_t i = 0; i < k; ++i) score += dist_target[i].second;
    scored.push_back({k > 0 ? score / k : 0.0, ref});
    report.query_seconds += 2.0e-5;  // kNN scoring per frame.
  }

  const int separation =
      options.min_separation_sec * (test.empty() ? 30 : test[0].fps());
  VerifyByScore(test, scored, predicate, options.limit, separation, &report);
  return report;
}

}  // namespace otif::baselines
