#include "track/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/logging.h"

namespace otif::track {

double CountAccuracy(double estimated, double ground_truth) {
  if (ground_truth <= 0.0) return estimated <= 0.0 ? 1.0 : 0.0;
  return std::clamp(1.0 - std::abs(estimated - ground_truth) / ground_truth,
                    0.0, 1.0);
}

double AveragePrecision50(const std::vector<Detection>& detections,
                          const std::vector<Detection>& ground_truth) {
  if (ground_truth.empty()) return detections.empty() ? 1.0 : 0.0;
  // Group ground truth by frame with matched flags.
  std::map<int, std::vector<std::pair<geom::BBox, bool>>> gt_by_frame;
  for (const Detection& g : ground_truth) {
    gt_by_frame[g.frame].emplace_back(g.box, false);
  }
  // Sort detections by descending confidence.
  std::vector<const Detection*> sorted;
  sorted.reserve(detections.size());
  for (const Detection& d : detections) sorted.push_back(&d);
  std::sort(sorted.begin(), sorted.end(),
            [](const Detection* a, const Detection* b) {
              return a->confidence > b->confidence;
            });

  std::vector<int> tp_flags;
  tp_flags.reserve(sorted.size());
  for (const Detection* d : sorted) {
    bool matched = false;
    auto it = gt_by_frame.find(d->frame);
    if (it != gt_by_frame.end()) {
      double best_iou = 0.5;  // IoU threshold.
      int best = -1;
      for (size_t g = 0; g < it->second.size(); ++g) {
        if (it->second[g].second) continue;  // Already matched.
        const double iou = d->box.Iou(it->second[g].first);
        if (iou >= best_iou) {
          best_iou = iou;
          best = static_cast<int>(g);
        }
      }
      if (best >= 0) {
        it->second[static_cast<size_t>(best)].second = true;
        matched = true;
      }
    }
    tp_flags.push_back(matched ? 1 : 0);
  }

  // Precision-recall sweep; AP = sum over recall steps of max precision to
  // the right (interpolated AP).
  const double total_gt = static_cast<double>(ground_truth.size());
  std::vector<double> precisions, recalls;
  int tp = 0;
  for (size_t i = 0; i < tp_flags.size(); ++i) {
    tp += tp_flags[i];
    precisions.push_back(static_cast<double>(tp) /
                         static_cast<double>(i + 1));
    recalls.push_back(static_cast<double>(tp) / total_gt);
  }
  if (precisions.empty()) return 0.0;
  // Make precision monotone non-increasing from the right.
  for (size_t i = precisions.size() - 1; i-- > 0;) {
    precisions[i] = std::max(precisions[i], precisions[i + 1]);
  }
  double ap = 0.0;
  double prev_recall = 0.0;
  for (size_t i = 0; i < precisions.size(); ++i) {
    ap += (recalls[i] - prev_recall) * precisions[i];
    prev_recall = recalls[i];
  }
  return ap;
}

std::vector<PrPoint> PrecisionRecallCurve(const std::vector<double>& scores,
                                          const std::vector<int>& labels,
                                          int num_thresholds) {
  OTIF_CHECK_EQ(scores.size(), labels.size());
  OTIF_CHECK_GT(num_thresholds, 1);
  int total_pos = 0;
  for (int l : labels) total_pos += (l != 0);
  std::vector<PrPoint> curve;
  for (int k = 0; k < num_thresholds; ++k) {
    const double threshold =
        static_cast<double>(k) / static_cast<double>(num_thresholds - 1);
    int tp = 0, fp = 0;
    for (size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] >= threshold) {
        if (labels[i] != 0) {
          ++tp;
        } else {
          ++fp;
        }
      }
    }
    PrPoint p;
    p.threshold = threshold;
    p.precision = (tp + fp) > 0 ? static_cast<double>(tp) / (tp + fp) : 1.0;
    p.recall = total_pos > 0 ? static_cast<double>(tp) / total_pos : 1.0;
    curve.push_back(p);
  }
  return curve;
}

double DetectionCoverage(const FrameDetections& ground_truth,
                         const std::vector<geom::BBox>& rectangles) {
  if (ground_truth.empty()) return 1.0;
  int covered = 0;
  for (const Detection& d : ground_truth) {
    for (const geom::BBox& r : rectangles) {
      if (r.Contains(d.box.Center())) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) /
         static_cast<double>(ground_truth.size());
}

}  // namespace otif::track
