// Exploratory analytics: after one pre-processing pass, run several
// different frame-level queries over the same extracted tracks and show
// that each answers in (simulated) milliseconds — the paper's claim that
// post-processing replaces per-query video decoding and inference.

#include <chrono>
#include <cstdio>

#include "core/otif.h"
#include "eval/workload.h"
#include "query/queries.h"
#include "obs/introspection_server.h"

int main() {
  using namespace otif;

  // OTIF_LOG_LEVEL, OTIF_TRACE_TIMELINE, OTIF_FAULTS, OTIF_METRICS_PORT,
  // OTIF_PROFILE.
  obs::InitFromEnv();

  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kJackson);
  core::RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 2;
  scale.test_clips = 2;
  scale.clip_seconds = 12;
  scale.proxy_train_steps = 200;
  scale.tracker_train_steps = 500;
  scale.proxy_resolutions = 2;

  core::Otif system(workload.spec, scale);
  auto valid = system.ValidClips();
  const core::AccuracyFn metric = workload.MakeAccuracyFn(&valid);
  std::printf("Pre-processing Jackson junction video once...\n");
  system.Prepare(metric, core::Tuner::Options{});
  const core::TunerPoint& chosen =
      system.FastestWithinTolerance(core::kAccuracyTolerance);

  auto test = system.TestClips();
  const core::AccuracyFn test_metric = workload.MakeAccuracyFn(&test);
  const core::EvalResult run = system.Execute(chosen.config, test, test_metric);
  std::printf("Pre-processing: %.1f simulated seconds. Now querying...\n\n",
              run.seconds);

  std::vector<int> clip_frames;
  for (const auto& clip : test) clip_frames.push_back(clip.num_frames());

  struct NamedQuery {
    const char* name;
    std::unique_ptr<query::FramePredicate> predicate;
  };
  std::vector<NamedQuery> queries;
  queries.push_back({"frames with >= 3 vehicles",
                     std::make_unique<query::CountPredicate>(3)});
  queries.push_back(
      {"frames with >= 2 vehicles in the junction core",
       std::make_unique<query::RegionPredicate>(
           geom::Polygon({{440, 240}, {840, 240}, {840, 560}, {440, 560}}),
           2)});
  queries.push_back({"frames with a 3-vehicle hot spot (r=150px)",
                     std::make_unique<query::HotSpotPredicate>(150.0, 3)});

  for (const NamedQuery& q : queries) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto frames = query::ExecuteLimitQueryMultiClip(
        run.tracks_per_clip, *q.predicate, clip_frames, 10,
        5 * workload.spec.fps);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("%-48s -> %2zu frames, accuracy %.2f, wall %.1f ms\n", q.name,
                frames.size(),
                query::LimitQueryAccuracy(test, frames, *q.predicate),
                std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::printf("\nEach query touched only the track store; no video was "
              "decoded and no model ran.\n");
  return 0;
}
