#ifndef OTIF_TRACK_METRICS_H_
#define OTIF_TRACK_METRICS_H_

#include <vector>

#include "track/types.h"

namespace otif::track {

/// Paper Sec 4.1 count accuracy: 1 - |x_hat - x*| / x*, clamped to [0, 1].
/// When the ground-truth count is zero, returns 1 if the estimate is also
/// zero, else 0.
double CountAccuracy(double estimated, double ground_truth);

/// A detection-level precision/recall operating point.
struct PrPoint {
  double threshold = 0.0;
  double precision = 0.0;
  double recall = 0.0;
};

/// mAP@50 for a single class (paper Fig 7 left): detections across frames
/// are sorted by confidence and matched greedily to ground truth boxes at
/// IoU >= 0.5 (one match per GT box per frame); average precision is the
/// area under the interpolated precision-recall curve.
double AveragePrecision50(const std::vector<Detection>& detections,
                          const std::vector<Detection>& ground_truth);

/// Precision/recall curve over score thresholds for binary per-cell scores
/// (paper Fig 7 right). `scores` and `labels` are parallel; labels are 0/1.
std::vector<PrPoint> PrecisionRecallCurve(const std::vector<double>& scores,
                                          const std::vector<int>& labels,
                                          int num_thresholds);

/// Fraction of ground-truth detections covered by at least one rectangle
/// (the proxy module's recall notion from Sec 3.5.2: a detection is covered
/// when its center lies in some rectangle).
double DetectionCoverage(const FrameDetections& ground_truth,
                         const std::vector<geom::BBox>& rectangles);

}  // namespace otif::track

#endif  // OTIF_TRACK_METRICS_H_
