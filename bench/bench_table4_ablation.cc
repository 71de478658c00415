// Reproduces Table 4: ablation of OTIF on Caldot1 and Warsaw. Four
// successively more complete systems are tuned and the fastest
// configuration within 5% of the best achieved accuracy is reported:
//   1. Detector Only          (tune architecture/resolution, gap fixed 1)
//   2. + Sampling Rate        (add gap tuning, SORT tracker)
//   3. + Recurrent Tracker    (replace SORT with the recurrent model)
//   4. + Segmentation Proxy   (full OTIF)

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "eval/workload.h"
#include "obs/introspection_server.h"
#include "util/strings.h"
#include "util/table.h"

namespace otif {
namespace {

struct AblationRow {
  const char* name;
  bool gap_tuning;
  core::TrackerKind tracker;
  bool proxy;
};

int Main() {
  obs::InitFromEnv();
  const core::RunScale scale = bench::BenchScale();
  std::printf("=== Table 4: ablation study (Caldot1, Warsaw) ===\n");
  bench::PrintScale(scale);

  const AblationRow rows[] = {
      {"Detector Only", false, core::TrackerKind::kSort, false},
      {"+ Sampling Rate", true, core::TrackerKind::kSort, false},
      {"+ Recurrent Tracker", true, core::TrackerKind::kRecurrent, false},
      {"+ Segmentation Proxy Model", true, core::TrackerKind::kRecurrent,
       true},
  };

  TextTable table({"Method", "Caldot1", "Warsaw"});
  std::vector<std::vector<std::string>> cells(
      4, std::vector<std::string>{"", "", ""});
  for (int r = 0; r < 4; ++r) cells[r][0] = rows[r].name;

  int col = 1;
  for (sim::DatasetId id : {sim::DatasetId::kCaldot1, sim::DatasetId::kWarsaw}) {
    const eval::TrackWorkload workload = eval::MakeTrackWorkload(id);
    // Shared training products across ablation rows (one Prepare).
    core::Otif otif_system(workload.spec, scale);
    auto valid = std::make_shared<std::vector<sim::Clip>>(
        otif_system.ValidClips());
    auto test = std::make_shared<std::vector<sim::Clip>>(
        otif_system.TestClips());
    const core::AccuracyFn valid_fn = workload.MakeAccuracyFn(valid.get());
    const core::AccuracyFn test_fn = workload.MakeAccuracyFn(test.get());
    core::Tuner::Options full_opts;
    otif_system.Prepare(valid_fn, full_opts);

    // Best accuracy across all ablation variants defines the 5% band;
    // compute each variant's curve with the shared trained models.
    std::vector<std::vector<core::TunerPoint>> curves;
    for (const AblationRow& row : rows) {
      core::Tuner::Options opts;
      opts.enable_gap_tuning = row.gap_tuning;
      opts.tracker = row.tracker;
      opts.enable_proxy = row.proxy;
      opts.enable_refine = row.tracker == core::TrackerKind::kRecurrent;
      core::Tuner tuner(valid.get(), &otif_system.trained(), valid_fn, opts);
      curves.push_back(tuner.Run(otif_system.theta_best()));
    }
    // Evaluate each curve point on the test set. The points re-score the
    // same test frames, so they share the proxy score memo.
    const core::TrainedModels& trained = otif_system.trained();
    double best_acc = 0.0;
    std::vector<std::vector<std::pair<double, double>>> test_points(4);
    for (int r = 0; r < 4; ++r) {
      for (const core::TunerPoint& p : curves[static_cast<size_t>(r)]) {
        const core::EvalResult e = core::EvaluateConfig(
            p.config, &trained, *test, test_fn, &trained.proxy_cache);
        test_points[static_cast<size_t>(r)].push_back({e.seconds, e.accuracy});
        best_acc = std::max(best_acc, e.accuracy);
      }
    }
    for (int r = 0; r < 4; ++r) {
      double fastest = 1e18;
      double fallback_best = 0.0;
      double fallback_sec = 1e18;
      for (const auto& [sec, acc] : test_points[static_cast<size_t>(r)]) {
        if (acc >= best_acc - core::kAccuracyTolerance) {
          fastest = std::min(fastest, sec);
        }
        if (acc > fallback_best ||
            (acc == fallback_best && sec < fallback_sec)) {
          fallback_best = acc;
          fallback_sec = sec;
        }
      }
      if (fastest >= 1e18) fastest = fallback_sec;
      cells[static_cast<size_t>(r)][static_cast<size_t>(col)] =
          StrFormat("%.1f", fastest);
    }
    ++col;
  }
  for (const auto& row : cells) table.AddRow(row);
  std::printf("runtime (simulated seconds) at fastest config within 5%% of "
              "best accuracy\n%s\n",
              table.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace otif

int main() { return otif::Main(); }
