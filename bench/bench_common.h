#ifndef OTIF_BENCH_BENCH_COMMON_H_
#define OTIF_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <cstring>

#include "core/otif.h"
#include "util/logging.h"

namespace otif::bench {

/// Experiment scale shared by the table/figure harnesses. Paper scale is 60
/// one-minute clips per split; CPU budgets here default to a few short
/// clips. OTIF_BENCH_SCALE=tiny shrinks further for smoke runs;
/// OTIF_BENCH_SCALE=large grows toward the paper's setting. Unset or empty
/// runs the default scale; any other value does too, with a warning.
inline core::RunScale BenchScale() {
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
  } else if (env != nullptr && env[0] != '\0') {
    OTIF_LOG(kWarning) << "OTIF_BENCH_SCALE=\"" << env
                       << "\" is not tiny or large; using the default scale";
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
