#include "eval/harness.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "baselines/catdet.h"
#include "baselines/centertrack.h"
#include "baselines/chameleon.h"
#include "baselines/miris.h"
#include "baselines/noscope.h"
#include "obs/introspection_server.h"
#include "obs/run_progress.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace otif::eval {

double SecondsForQueries(const baselines::MethodPoint& point, int queries) {
  return point.reusable_seconds + point.query_seconds * queries;
}

namespace {

/// The baselines ExperimentOptions::methods may name.
constexpr std::string_view kBaselineMethods[] = {
    "miris", "chameleon", "noscope", "catdet", "centertrack"};

}  // namespace

StatusOr<TrackExperimentResult> RunTrackExperiment(
    sim::DatasetId id, const ExperimentOptions& options) {
  obs::InitFromEnv();
  OTIF_SPAN("harness/experiment");
  // Check the names before Prepare trains and tunes; the baselines
  // themselves are built after it (NoScope needs a trained proxy).
  for (const std::string& method : options.methods) {
    if (std::find(std::begin(kBaselineMethods), std::end(kBaselineMethods),
                  method) == std::end(kBaselineMethods)) {
      return Status::InvalidArgument("unknown method \"" + method + "\"");
    }
  }
  TrackExperimentResult result;
  const TrackWorkload workload = MakeTrackWorkload(id);
  result.dataset = workload.spec.name;

  result.otif = std::make_shared<core::Otif>(workload.spec, options.scale);
  // Clip sets are deterministic; keep stable copies for the closures.
  auto valid = std::make_shared<std::vector<sim::Clip>>(
      result.otif->ValidClips());
  auto test = std::make_shared<std::vector<sim::Clip>>(
      result.otif->TestClips());
  const core::AccuracyFn valid_accuracy =
      workload.MakeAccuracyFn(valid.get());
  const core::AccuracyFn test_accuracy = workload.MakeAccuracyFn(test.get());

  // --- OTIF ---
  core::Tuner::Options tuner_options;
  OTIF_LOG(kInfo) << "[" << result.dataset << "] preparing OTIF";
  {
    telemetry::ScopedSpan span(telemetry::GetSpan("harness/prepare"));
    obs::RunProgress::Global().SetPhase("prepare");
    result.otif->Prepare(valid_accuracy, tuner_options);
  }
  OTIF_LOG(kInfo) << "[" << result.dataset << "] executing curve";
  {
    telemetry::ScopedSpan span(telemetry::GetSpan("harness/execute_curve"));
    obs::RunProgress::Global().SetPhase("execute_curve");
    // Every curve point runs over the same test clips, so the points share
    // the proxy score memo (Execute alone would score each frame again).
    const core::TrainedModels& trained = result.otif->trained();
    std::vector<baselines::MethodPoint> points;
    for (const core::TunerPoint& tp : result.otif->curve()) {
      core::EvalResult r = core::EvaluateConfig(
          tp.config, &trained, *test, test_accuracy, &trained.proxy_cache);
      baselines::MethodPoint p;
      p.label = tp.config.ToString();
      p.seconds = r.seconds;
      p.reusable_seconds = r.seconds;  // Tracks are reusable: no per-query
                                       // video or model cost.
      p.accuracy = r.accuracy;
      points.push_back(p);
    }
    result.curves["otif"] = std::move(points);
  }

  // --- Baselines ---
  // Construct every requested baseline first, then run them across the
  // worker pool: the methods are independent of one another and only read
  // the shared clip sets. Curves are inserted in baseline order afterwards
  // so the result is identical to the serial loop.
  std::vector<std::unique_ptr<baselines::TrackBaseline>> to_run;
  for (const std::string& method : options.methods) {
    if (method == "centertrack" && workload.spec.moving_camera) {
      continue;  // Paper Table 2 reports "-" for CenterTrack on UAV.
    }
    std::unique_ptr<baselines::TrackBaseline> baseline;
    if (method == "miris") {
      baseline = std::make_unique<baselines::Miris>();
    } else if (method == "chameleon") {
      baseline = std::make_unique<baselines::Chameleon>();
    } else if (method == "noscope") {
      OTIF_CHECK(!result.otif->trained().proxies.empty());
      baseline = std::make_unique<baselines::NoScope>(
          result.otif->trained().proxies.back().get());
    } else if (method == "catdet") {
      baseline = std::make_unique<baselines::CaTDet>();
    } else {
      OTIF_CHECK(method == "centertrack") << method;
      baseline = std::make_unique<baselines::CenterTrack>();
    }
    OTIF_LOG(kInfo) << "[" << result.dataset << "] running "
                    << baseline->name();
    to_run.push_back(std::move(baseline));
  }
  obs::RunProgress::Global().SetPhase("baselines");
  std::vector<std::vector<baselines::MethodPoint>> curves = ParallelMap(
      ThreadPool::Default(), static_cast<int64_t>(to_run.size()),
      [&](int64_t i) {
        baselines::TrackBaseline* baseline = to_run[static_cast<size_t>(i)].get();
        // Per-baseline span (dynamic name, so resolved per call).
        telemetry::ScopedSpan span(
            telemetry::GetSpan("harness/baseline/" + baseline->name()));
        return baseline->Run(*valid, *test, valid_accuracy, test_accuracy);
      });
  for (size_t i = 0; i < to_run.size(); ++i) {
    result.curves[to_run[i]->name()] = std::move(curves[i]);
  }

  obs::RunProgress::Global().SetPhase("idle");
  for (const auto& [name, points] : result.curves) {
    for (const baselines::MethodPoint& p : points) {
      result.best_accuracy = std::max(result.best_accuracy, p.accuracy);
    }
  }
  return result;
}

}  // namespace otif::eval
