#ifndef OTIF_BASELINES_NOSCOPE_H_
#define OTIF_BASELINES_NOSCOPE_H_

#include <vector>

#include "baselines/baseline.h"
#include "models/proxy.h"

namespace otif::baselines {

/// NoScope (Kang et al., VLDB 2017): a frame-level binary classification
/// proxy decides whether a frame contains at least one object; the detector
/// is skipped on confidently empty frames. No resolution or framerate
/// tuning. On busy datasets where every frame has objects the proxy skips
/// nothing, leaving only the two trivial operating points the paper
/// observes (run on everything / skip everything).
///
/// The frame classifier reuses the segmentation proxy architecture at the
/// smallest resolution with the frame score = max cell score, matching
/// NoScope's "is anything here" semantics. `proxy` is a trained
/// smallest-resolution proxy model (shared with OTIF's training products to
/// avoid re-training in experiments); only its frame-level max score is
/// used. Returns the speed-accuracy points measured on `test`.
std::vector<MethodPoint> RunNoScope(const models::ProxyModel& proxy,
                                    const std::vector<sim::Clip>& test,
                                    const core::AccuracyFn& test_accuracy);

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_NOSCOPE_H_
