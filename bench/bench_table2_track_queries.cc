// Reproduces Table 2: runtime of each method on the test set of each
// dataset at the fastest configuration within 5% of the best achieved
// accuracy, for 1 query and (estimated) 5 queries. Runtimes are simulated
// seconds; the paper's comparisons are between methods, not absolute.

#include <cstdio>

#include "bench/bench_common.h"
#include "eval/harness.h"
#include "obs/introspection_server.h"
#include "util/strings.h"
#include "util/table.h"

namespace otif {
namespace {

int Main() {
  obs::InitFromEnv();
  const core::RunScale scale = bench::BenchScale();
  std::printf("=== Table 2: object track queries ===\n");
  bench::PrintScale(scale);

  const std::vector<std::string> methods = {"otif",    "miris",  "chameleon",
                                            "noscope", "catdet", "centertrack"};
  TextTable one_query(
      {"Dataset", "OTIF", "Miris", "Cham", "NoScope", "CaTDet", "CTrack"});
  TextTable five_queries(
      {"Dataset", "OTIF", "Miris", "Cham", "NoScope", "CaTDet", "CTrack"});
  TextTable accuracies(
      {"Dataset", "OTIF", "Miris", "Cham", "NoScope", "CaTDet", "CTrack",
       "BestAcc"});

  for (sim::DatasetId id : sim::AllPaperDatasets()) {
    eval::ExperimentOptions options;
    options.scale = scale;
    StatusOr<eval::TrackExperimentResult> result_or =
        eval::RunTrackExperiment(id, options);
    OTIF_CHECK(result_or.ok()) << result_or.status().ToString();
    const eval::TrackExperimentResult& result = *result_or;

    std::vector<std::string> row1 = {result.dataset};
    std::vector<std::string> row5 = {result.dataset};
    std::vector<std::string> rowa = {result.dataset};
    for (const std::string& method : methods) {
      auto it = result.curves.find(method);
      if (it == result.curves.end() || it->second.empty()) {
        row1.push_back("-");
        row5.push_back("-");
        rowa.push_back("-");
        continue;
      }
      const baselines::MethodPoint* pick = baselines::FastestWithinTolerance(
          it->second, result.best_accuracy, core::kAccuracyTolerance);
      row1.push_back(StrFormat("%.1f", eval::SecondsForQueries(*pick, 1)));
      row5.push_back(StrFormat("%.1f", eval::SecondsForQueries(*pick, 5)));
      rowa.push_back(StrFormat("%.2f", pick->accuracy));
    }
    rowa.push_back(StrFormat("%.2f", result.best_accuracy));
    one_query.AddRow(row1);
    five_queries.AddRow(row5);
    accuracies.AddRow(rowa);
  }

  std::printf("--- 1 query: runtime (simulated seconds) ---\n%s\n",
              one_query.ToString().c_str());
  std::printf("--- 5 queries (estimated): runtime (simulated seconds) ---\n%s\n",
              five_queries.ToString().c_str());
  std::printf(
      "--- accuracy of the selected configuration (within 5%% of best) "
      "---\n%s\n",
      accuracies.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace otif

int main() { return otif::Main(); }
