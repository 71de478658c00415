#ifndef OTIF_BASELINES_CATDET_H_
#define OTIF_BASELINES_CATDET_H_

#include <vector>

#include "baselines/baseline.h"

namespace otif::baselines {

/// CaTDet (Mao et al., SysML 2019): a cascaded tracker-detector. The full
/// detector runs on a refresh schedule (every K-th frame); between
/// refreshes, the detector runs only inside proposal windows around the
/// previous frame's detections, so compute follows the tracked objects.
/// SORT links the detections. No resolution or framerate tuning, matching
/// the paper's observation that CaTDet "does not optimize framerate or
/// resolution". Returns the speed-accuracy points measured on `test`.
std::vector<MethodPoint> RunCaTDet(const std::vector<sim::Clip>& test,
                                   const core::AccuracyFn& test_accuracy);

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_CATDET_H_
