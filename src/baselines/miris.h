#ifndef OTIF_BASELINES_MIRIS_H_
#define OTIF_BASELINES_MIRIS_H_

#include <vector>

#include "baselines/baseline.h"
#include "models/detector.h"

namespace otif::baselines {

/// Miris (Bastani et al., SIGMOD 2020): query-driven variable-rate
/// tracking. Tracks at reduced sampling rates with a GNN matcher that only
/// compares consecutive processed frames (modeled by the pairwise IoU +
/// displacement tracker), then *refines* tracks by processing additional
/// frames at finer rates around each track's endpoints to recover the true
/// start/end (binary sub-division with windowed detector invocations).
///
/// The refinement and rate-planning phases are query-specific, so the
/// whole execution repeats per query (query_seconds = full runtime); this
/// is what makes Miris 5x more expensive for five queries (Table 2).
/// Returns the speed-accuracy points measured on `test`.
std::vector<MethodPoint> RunMiris(const std::vector<sim::Clip>& test,
                                  const core::AccuracyFn& test_accuracy);

/// Runs Miris at one sampling gap over a clip set. Returns the per-clip
/// tracks; charges detection/track/refinement costs to `clock`.
std::vector<std::vector<track::Track>> RunMirisAtGap(
    const std::vector<sim::Clip>& clips, int gap, double detector_scale,
    models::SimClock* clock);

}  // namespace otif::baselines

#endif  // OTIF_BASELINES_MIRIS_H_
