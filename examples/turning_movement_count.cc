// Turning movement counts at a junction (the paper's motivating traffic-
// planning application): extract all tracks from Tokyo-style junction video
// once, then report per-direction vehicle counts and compare with ground
// truth. Also demonstrates that the extracted tracks answer a *second*
// query (hard braking near the junction) with no extra video processing.

#include <cstdio>

#include "core/otif.h"
#include "eval/workload.h"
#include "query/queries.h"
#include "util/table.h"
#include "util/strings.h"
#include "obs/introspection_server.h"

int main() {
  using namespace otif;

  // OTIF_LOG_LEVEL, OTIF_TRACE_TIMELINE, OTIF_FAULTS, OTIF_METRICS_PORT,
  // OTIF_PROFILE.
  obs::InitFromEnv();

  const eval::TrackWorkload workload =
      eval::MakeTrackWorkload(sim::DatasetId::kTokyo);
  core::RunScale scale;
  scale.train_clips = 2;
  scale.valid_clips = 2;
  scale.test_clips = 2;
  scale.clip_seconds = 14;
  scale.proxy_train_steps = 200;
  scale.tracker_train_steps = 500;
  scale.proxy_resolutions = 2;

  core::Otif system(workload.spec, scale);
  auto valid = system.ValidClips();
  const core::AccuracyFn metric = workload.MakeAccuracyFn(&valid);
  std::printf("Preparing OTIF on the Tokyo junction (10 turning "
              "movements)...\n");
  system.Prepare(metric, core::Tuner::Options{});
  const core::TunerPoint& chosen =
      system.FastestWithinTolerance(core::kAccuracyTolerance);

  auto test = system.TestClips();
  const core::AccuracyFn test_metric = workload.MakeAccuracyFn(&test);
  const core::EvalResult run = system.Execute(chosen.config, test, test_metric);
  std::printf("Tracks extracted in %.1f simulated seconds.\n\n", run.seconds);

  // Turning movement counts per clip.
  TextTable table({"Movement", "Counted", "Ground truth"});
  std::map<std::string, int> total_est, total_gt;
  for (size_t c = 0; c < test.size(); ++c) {
    const auto est = query::ClassifyTracksByPath(
        run.tracks_per_clip[c], workload.spec,
        0.15 * std::max(workload.spec.width, workload.spec.height));
    const auto gt = query::GroundTruthPathCounts(test[c], 0.35);
    for (const auto& [label, n] : est) total_est[label] += n;
    for (const auto& [label, n] : gt) total_gt[label] += n;
  }
  for (const auto& [label, n] : total_gt) {
    table.AddRow({label, StrFormat("%d", total_est[label]),
                  StrFormat("%d", n)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Second query on the same tracks: hard braking (>= 5 m/s^2).
  int braking = 0;
  for (const auto& tracks : run.tracks_per_clip) {
    braking += static_cast<int>(
        query::FindHardBrakingTracks(tracks, workload.spec, 5.0).size());
  }
  std::printf("Hard-braking vehicles across clips: %d "
              "(answered from tracks, no re-processing)\n",
              braking);
  return 0;
}
