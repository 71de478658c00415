#ifndef OTIF_BASELINES_CHAMELEON_H_
#define OTIF_BASELINES_CHAMELEON_H_

#include <vector>

#include "baselines/baseline.h"

namespace otif::baselines {

/// Chameleon (Jiang et al., SIGCOMM 2018): adapts the detector input
/// resolution, architecture, and sampling framerate by profiling candidate
/// configurations, but uses a heuristic tracker and no spatial proxy.
/// Implemented as a hill-climbing sweep over (arch, scale, gap) with SORT,
/// mirroring the paper's description of Chameleon as a configuration
/// adapter for the detection pipeline. Selects the candidates on `valid`
/// and returns their speed-accuracy points measured on `test`.
std::vector<MethodPoint> RunChameleon(const std::vector<sim::Clip>& valid,
                                      const std::vector<sim::Clip>& test,
                                      const core::AccuracyFn& valid_accuracy,
                                      const core::AccuracyFn& test_accuracy);

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_CHAMELEON_H_
