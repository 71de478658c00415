// Reproduces Figure 5: runtime-accuracy curves on the test set for each
// dataset and method (OTIF vs Miris, Chameleon, NoScope, CaTDet,
// CenterTrack). Each printed point is one parameter configuration chosen on
// the validation set. Output is a CSV-like series per dataset.

#include <cstdio>

#include "bench/bench_common.h"
#include "eval/harness.h"
#include "obs/introspection_server.h"

namespace otif {
namespace {

int Main() {
  obs::InitFromEnv();
  const core::RunScale scale = bench::BenchScale();
  std::printf("=== Figure 5: runtime-accuracy curves ===\n");
  bench::PrintScale(scale);

  for (sim::DatasetId id : sim::AllPaperDatasets()) {
    const eval::TrackExperimentResult result =
        eval::RunTrackExperiment(id, scale);
    std::printf("# dataset=%s (best accuracy %.3f)\n", result.dataset.c_str(),
                result.best_accuracy);
    std::printf("method,runtime_sec,accuracy\n");
    for (const auto& [method, points] : result.curves) {
      for (const baselines::MethodPoint& p : points) {
        std::printf("%s,%.2f,%.3f\n", method.c_str(), p.seconds, p.accuracy);
      }
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace otif

int main() { return otif::Main(); }
