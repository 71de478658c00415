#ifndef OTIF_BASELINES_CENTERTRACK_H_
#define OTIF_BASELINES_CENTERTRACK_H_

#include <vector>

#include "baselines/baseline.h"

namespace otif::baselines {

/// CenterTrack (Zhou et al., ECCV 2020): a high-accuracy multi-object
/// tracker that runs a heavy joint detection+offset network on consecutive
/// frame pairs. A speed-accuracy tradeoff is obtained only by naive
/// resolution and framerate tuning (as the paper does in Sec 4). The
/// integrated network pairs frames, so association quality collapses at
/// large sampling gaps — modeled by the pairwise tracker with a tight
/// displacement gate. Returns the speed-accuracy points measured on `test`.
std::vector<MethodPoint> RunCenterTrack(const std::vector<sim::Clip>& test,
                                        const core::AccuracyFn& test_accuracy);

/// The DLA-34 backbone cost profile (heavier than YOLOv3, close to Mask
/// R-CNN).
models::DetectorArch CenterTrackBackbone();

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_CENTERTRACK_H_
