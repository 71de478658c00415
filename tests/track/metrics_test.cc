#include "track/metrics.h"

#include <gtest/gtest.h>

namespace otif::track {
namespace {

Detection MakeDet(int frame, double cx, double cy, double conf = 1.0) {
  Detection d;
  d.frame = frame;
  d.box = geom::BBox(cx, cy, 20, 20);
  d.confidence = conf;
  return d;
}

TEST(CountAccuracyTest, ExactAndOff) {
  EXPECT_DOUBLE_EQ(CountAccuracy(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(CountAccuracy(9, 10), 0.9);
  EXPECT_DOUBLE_EQ(CountAccuracy(11, 10), 0.9);
  EXPECT_DOUBLE_EQ(CountAccuracy(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(CountAccuracy(30, 10), 0.0);  // Clamped, not negative.
}

TEST(CountAccuracyTest, ZeroGroundTruth) {
  EXPECT_DOUBLE_EQ(CountAccuracy(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(CountAccuracy(3, 0), 0.0);
}

TEST(AveragePrecisionTest, PerfectDetections) {
  std::vector<Detection> gt = {MakeDet(0, 50, 50), MakeDet(1, 80, 80)};
  EXPECT_DOUBLE_EQ(AveragePrecision50(gt, gt), 1.0);
}

TEST(AveragePrecisionTest, EmptyCases) {
  std::vector<Detection> gt = {MakeDet(0, 50, 50)};
  EXPECT_DOUBLE_EQ(AveragePrecision50({}, gt), 0.0);
  EXPECT_DOUBLE_EQ(AveragePrecision50({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(AveragePrecision50(gt, {}), 0.0);
}

TEST(AveragePrecisionTest, MissedDetectionLowersAp) {
  std::vector<Detection> gt = {MakeDet(0, 50, 50), MakeDet(0, 200, 200)};
  std::vector<Detection> dets = {MakeDet(0, 50, 50)};
  const double ap = AveragePrecision50(dets, gt);
  EXPECT_NEAR(ap, 0.5, 1e-9);
}

TEST(AveragePrecisionTest, FalsePositiveWithLowConfidenceHurtsLess) {
  std::vector<Detection> gt = {MakeDet(0, 50, 50)};
  // FP ranked above the TP vs below it.
  std::vector<Detection> fp_first = {MakeDet(0, 300, 300, 0.9),
                                     MakeDet(0, 50, 50, 0.5)};
  std::vector<Detection> fp_last = {MakeDet(0, 300, 300, 0.3),
                                    MakeDet(0, 50, 50, 0.8)};
  EXPECT_LT(AveragePrecision50(fp_first, gt), AveragePrecision50(fp_last, gt));
}

TEST(AveragePrecisionTest, DuplicateDetectionsCountOnce) {
  std::vector<Detection> gt = {MakeDet(0, 50, 50)};
  std::vector<Detection> dets = {MakeDet(0, 50, 50, 0.9),
                                 MakeDet(0, 51, 50, 0.8)};  // Duplicate.
  const double ap = AveragePrecision50(dets, gt);
  EXPECT_LT(ap, 1.01);
  EXPECT_GT(ap, 0.9);  // TP first; duplicate only trims the tail.
}

TEST(AveragePrecisionTest, WrongFrameDoesNotMatch) {
  std::vector<Detection> gt = {MakeDet(0, 50, 50)};
  std::vector<Detection> dets = {MakeDet(1, 50, 50)};
  EXPECT_DOUBLE_EQ(AveragePrecision50(dets, gt), 0.0);
}

TEST(PrecisionRecallCurveTest, SeparableScores) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<int> labels = {1, 1, 0, 0};
  const auto curve = PrecisionRecallCurve(scores, labels, 11);
  ASSERT_EQ(curve.size(), 11u);
  // At threshold 0.5: precision 1, recall 1.
  EXPECT_DOUBLE_EQ(curve[5].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[5].recall, 1.0);
  // At threshold 0: everything positive -> precision 0.5, recall 1.
  EXPECT_DOUBLE_EQ(curve[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(curve[0].recall, 1.0);
}

TEST(PrecisionRecallCurveTest, RecallFallsWithThreshold) {
  const std::vector<double> scores = {0.9, 0.6, 0.3};
  const std::vector<int> labels = {1, 1, 1};
  const auto curve = PrecisionRecallCurve(scores, labels, 21);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].recall, curve[i - 1].recall + 1e-12);
  }
}

TEST(DetectionCoverageTest, CountsCoveredCenters) {
  FrameDetections gt = {MakeDet(0, 10, 10), MakeDet(0, 100, 100)};
  const std::vector<geom::BBox> rects = {geom::BBox::FromCorners(0, 0, 50, 50)};
  EXPECT_DOUBLE_EQ(DetectionCoverage(gt, rects), 0.5);
  EXPECT_DOUBLE_EQ(DetectionCoverage({}, rects), 1.0);
  EXPECT_DOUBLE_EQ(DetectionCoverage(gt, {}), 0.0);
}

}  // namespace
}  // namespace otif::track
