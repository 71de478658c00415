#ifndef OTIF_BASELINES_BLAZEIT_H_
#define OTIF_BASELINES_BLAZEIT_H_

#include "baselines/frame_query.h"

namespace otif::baselines {

/// BlazeIt (Kang et al.): frame-level limit queries via a query-specific
/// count-regression proxy. Pre-processing applies the proxy to every frame
/// (64x64-class inputs); query execution verifies frames with the full
/// detector from highest proxy score down until the limit is met. The
/// proxy is query-specific, so pre-processing repeats for every query.
class BlazeIt {
 public:
  struct Options {
    int train_steps = 400;
    int limit = 25;
    int min_separation_sec = 5;
  };

  /// Trains the per-query proxy on `train` (cost excluded per the paper),
  /// then executes the limit query over `test`.
  static FrameQueryReport RunQuery(const std::vector<sim::Clip>& train,
                                   const std::vector<sim::Clip>& test,
                                   const FrameTarget& target,
                                   const query::FramePredicate& predicate,
                                   const Options& options, uint64_t seed);

  /// Simulated per-frame proxy cost (decode at proxy resolution + tiny
  /// CNN), calibrated against the paper's Table 3 pre-processing anchor.
  static double ProxySecondsPerFrame();
};

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_BLAZEIT_H_
