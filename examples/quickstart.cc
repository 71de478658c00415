// Quickstart: run the complete OTIF workflow on the small synthetic
// dataset — sample splits, select theta_best, train the proxy and tracker
// models, tune parameters, pick a configuration from the speed-accuracy
// curve, extract all tracks from unseen clips, and answer a query from the
// tracks alone.

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

  // 1. Describe the dataset and experiment scale.
  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kSynthetic);
  core::RunScale scale;
  scale.train_clips = 3;
  scale.valid_clips = 2;
  scale.test_clips = 2;
  scale.clip_seconds = 15;
  core::Otif system(workload.spec, scale);

  // 2. Prepare: theta_best selection, model training, joint tuning.
  //    The accuracy metric is the user-provided part of the workflow
  //    (paper Fig 1); here it is a path-breakdown count accuracy.
  auto valid = system.ValidClips();
  const core::AccuracyFn metric = workload.MakeAccuracyFn(&valid);
  std::printf("Preparing OTIF on '%s'...\n", workload.spec.name.c_str());
  system.Prepare(metric, core::Tuner::Options{});

  // 3. Inspect the speed-accuracy curve and pick a point.
  std::printf("\nSpeed-accuracy curve (validation):\n");
  for (const core::TunerPoint& p : system.curve()) {
    std::printf("  %6.2f s  acc=%.3f  %s\n", p.val_seconds, p.val_accuracy,
                p.config.ToString().c_str());
  }
  const core::TunerPoint& chosen =
      system.FastestWithinTolerance(core::kAccuracyTolerance);
  std::printf("\nChosen configuration: %s\n", chosen.config.ToString().c_str());

  // 4. Extract all tracks from unseen clips.
  auto test = system.TestClips();
  const core::AccuracyFn test_metric = workload.MakeAccuracyFn(&test);
  const core::EvalResult run =
      system.Execute(chosen.config, test, test_metric);
  std::printf("Extracted tracks from %zu clips in %.2f simulated seconds "
              "(accuracy %.3f)\n",
              test.size(), run.seconds, run.accuracy);

  // 5. Answer queries by post-processing tracks: no video, no ML.
  for (size_t c = 0; c < test.size(); ++c) {
    const auto& tracks = run.tracks_per_clip[c];
    const int cars = query::CountVehicleTracks(tracks, workload.spec.fps);
    const auto braking =
        query::FindHardBrakingTracks(tracks, workload.spec, 4.0);
    std::printf("  clip %zu: %zu tracks, %d vehicles >=1s, %zu hard-braking\n",
                c, tracks.size(), cars, braking.size());
  }
  return 0;
}
