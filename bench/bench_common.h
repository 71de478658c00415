#ifndef OTIF_BENCH_BENCH_COMMON_H_
#define OTIF_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <cstring>

#include "core/otif.h"
#include "obs/introspection_server.h"
#include "util/logging.h"
#include "util/trace_timeline.h"

namespace otif::bench {

/// The one startup hook every bench binary runs (directly or via
/// BenchScale): applies OTIF_LOG_LEVEL, arms the timeline tracer and fault
/// injection from the environment (OTIF_TRACE_TIMELINE, OTIF_FAULTS), and
/// starts the live introspection server when asked (OTIF_METRICS_PORT).
/// Keep per-binary env parsing out of bench mains — add shared switches
/// here.
inline void BenchInit() {
  InitObservabilityFromEnv();
  obs::InitIntrospectionFromEnv();
}

/// Experiment scale shared by the table/figure harnesses. Paper scale is 60
/// one-minute clips per split; CPU budgets here default to a few short
/// clips. OTIF_BENCH_SCALE=tiny shrinks further for smoke runs;
/// OTIF_BENCH_SCALE=large grows toward the paper's setting.
///
/// Also runs BenchInit() (every bench main reaches this first), so sweeps
/// can silence the stderr log or capture a timeline without a rebuild.
inline core::RunScale BenchScale() {
  BenchInit();
  core::RunScale scale;
  scale.train_clips = 3;
  scale.valid_clips = 3;
  scale.test_clips = 3;
  scale.clip_seconds = 16;
  scale.proxy_train_steps = 300;
  scale.tracker_train_steps = 700;
  scale.proxy_resolutions = 3;
  const char* env = std::getenv("OTIF_BENCH_SCALE");
  if (env != nullptr && std::strcmp(env, "tiny") == 0) {
    scale.train_clips = 2;
    scale.valid_clips = 2;
    scale.test_clips = 2;
    scale.clip_seconds = 10;
    scale.proxy_train_steps = 150;
    scale.tracker_train_steps = 350;
    scale.proxy_resolutions = 2;
  } else if (env != nullptr && std::strcmp(env, "large") == 0) {
    scale.train_clips = 6;
    scale.valid_clips = 5;
    scale.test_clips = 6;
    scale.clip_seconds = 30;
    scale.proxy_train_steps = 600;
    scale.tracker_train_steps = 1500;
    scale.proxy_resolutions = 5;
  }
  return scale;
}

inline void PrintScale(const core::RunScale& scale) {
  std::printf(
      "scale: train=%d valid=%d test=%d clips of %ds, proxy_steps=%d "
      "tracker_steps=%d resolutions=%d (OTIF_BENCH_SCALE=tiny|large to "
      "change)\n\n",
      scale.train_clips, scale.valid_clips, scale.test_clips,
      scale.clip_seconds, scale.proxy_train_steps, scale.tracker_train_steps,
      scale.proxy_resolutions);
}

}  // namespace otif::bench

#endif  // OTIF_BENCH_BENCH_COMMON_H_
