#include "models/detector.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/dataset.h"

namespace otif::models {
namespace {

sim::Clip TestClip() {
  return sim::SimulateClip(sim::MakeDataset(sim::DatasetId::kSynthetic), 17,
                           300);
}

TEST(DetectorArchTest, StandardSetHasYoloAndMaskRcnn) {
  const auto archs = StandardDetectorArchs();
  ASSERT_EQ(archs.size(), 2u);
  EXPECT_EQ(archs[0].name, "yolov3");
  EXPECT_EQ(archs[1].name, "mask_rcnn");
  // Mask R-CNN is slower but stronger on small objects.
  EXPECT_GT(archs[1].sec_per_pixel, archs[0].sec_per_pixel);
  EXPECT_LT(archs[1].size50_px, archs[0].size50_px);
}

TEST(DetectorArchTest, ArchByName) {
  const auto archs = StandardDetectorArchs();
  EXPECT_EQ(ArchByName(archs, "yolov3").name, "yolov3");
  EXPECT_DEATH(ArchByName(archs, "nope"), "unknown detector");
}

TEST(DetectorArchTest, YoloThroughputMatchesPaperAnchor) {
  // Paper: YOLOv3 processes 960x540 at 100 fps, i.e. 10 ms per frame.
  const auto archs = StandardDetectorArchs();
  const double sec = DetectorWindowSeconds(archs[0], 960, 540);
  EXPECT_NEAR(sec, 0.010, 0.002);
}

TEST(SimulatedDetectorTest, Deterministic) {
  sim::Clip clip = TestClip();
  SimulatedDetector det(StandardDetectorArchs()[0]);
  const auto a = det.Detect(clip, 10, 1.0);
  const auto b = det.Detect(clip, 10, 1.0);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].box.cx, b[i].box.cx);
    EXPECT_DOUBLE_EQ(a[i].confidence, b[i].confidence);
  }
}

TEST(SimulatedDetectorTest, HighRecallAtFullScale) {
  sim::Clip clip = TestClip();
  SimulatedDetector det(StandardDetectorArchs()[0]);
  int gt_total = 0, detected = 0;
  for (int f = 0; f < clip.num_frames(); f += 5) {
    const auto gt = clip.GroundTruthDetections(f);
    const auto dets = det.Detect(clip, f, 1.0);
    for (const auto& g : gt) {
      ++gt_total;
      for (const auto& d : dets) {
        if (d.gt_id == g.gt_id) {
          ++detected;
          break;
        }
      }
    }
  }
  ASSERT_GT(gt_total, 50);
  EXPECT_GT(static_cast<double>(detected) / gt_total, 0.85);
}

TEST(SimulatedDetectorTest, RecallDegradesWithScale) {
  sim::Clip clip = TestClip();
  SimulatedDetector det(StandardDetectorArchs()[0]);
  auto recall_at = [&](double scale) {
    int gt_total = 0, detected = 0;
    for (int f = 0; f < clip.num_frames(); f += 5) {
      const auto gt = clip.GroundTruthDetections(f);
      const auto dets = det.Detect(clip, f, scale);
      for (const auto& g : gt) {
        ++gt_total;
        for (const auto& d : dets) {
          if (d.gt_id == g.gt_id) {
            ++detected;
            break;
          }
        }
      }
    }
    return gt_total > 0 ? static_cast<double>(detected) / gt_total : 0.0;
  };
  const double full = recall_at(1.0);
  const double half = recall_at(0.5);
  const double tiny = recall_at(0.15);
  EXPECT_GE(full, half - 0.02);
  EXPECT_GT(half, tiny + 0.05);
  EXPECT_LT(tiny, 0.75);
}

TEST(SimulatedDetectorTest, MaskRcnnBeatsYoloAtLowScale) {
  sim::Clip clip = TestClip();
  SimulatedDetector yolo(StandardDetectorArchs()[0]);
  SimulatedDetector rcnn(StandardDetectorArchs()[1]);
  auto recall = [&](SimulatedDetector& det, double scale) {
    int gt_total = 0, detected = 0;
    for (int f = 0; f < clip.num_frames(); f += 4) {
      const auto gt = clip.GroundTruthDetections(f);
      const auto dets = det.Detect(clip, f, scale);
      for (const auto& g : gt) {
        ++gt_total;
        for (const auto& d : dets) {
          if (d.gt_id == g.gt_id) {
            ++detected;
            break;
          }
        }
      }
    }
    return static_cast<double>(detected) / std::max(1, gt_total);
  };
  EXPECT_GT(recall(rcnn, 0.2), recall(yolo, 0.2));
}

TEST(SimulatedDetectorTest, FalsePositivesHaveLowConfidenceAndNoGtId) {
  sim::Clip clip = TestClip();
  SimulatedDetector det(StandardDetectorArchs()[0]);
  int fps_seen = 0;
  double fp_conf_sum = 0.0, tp_conf_sum = 0.0;
  int tp_seen = 0;
  for (int f = 0; f < clip.num_frames(); ++f) {
    for (const auto& d : det.Detect(clip, f, 1.0)) {
      if (d.gt_id < 0) {
        ++fps_seen;
        fp_conf_sum += d.confidence;
      } else {
        ++tp_seen;
        tp_conf_sum += d.confidence;
      }
    }
  }
  ASSERT_GT(fps_seen, 0);
  ASSERT_GT(tp_seen, 0);
  EXPECT_LT(fp_conf_sum / fps_seen, tp_conf_sum / tp_seen);
}

TEST(SimulatedDetectorTest, ConfidenceThresholdTradesRecallForPrecision) {
  sim::Clip clip = TestClip();
  SimulatedDetector det(StandardDetectorArchs()[0]);
  int fp_low = 0, fp_high = 0, tp_low = 0, tp_high = 0;
  for (int f = 0; f < clip.num_frames(); f += 2) {
    const auto dets = det.Detect(clip, f, 1.0);
    for (const auto& d : FilterByConfidence(dets, 0.1)) {
      (d.gt_id < 0 ? fp_low : tp_low) += 1;
    }
    for (const auto& d : FilterByConfidence(dets, 0.6)) {
      (d.gt_id < 0 ? fp_high : tp_high) += 1;
    }
  }
  EXPECT_LT(fp_high, fp_low);
  EXPECT_LE(tp_high, tp_low);
  EXPECT_GT(tp_high, 0);
}

TEST(FilterTest, WindowsKeepOnlyCoveredDetections) {
  track::FrameDetections dets;
  track::Detection d;
  d.box = geom::BBox(10, 10, 4, 4);
  dets.push_back(d);
  d.box = geom::BBox(100, 100, 4, 4);
  dets.push_back(d);
  const std::vector<geom::BBox> windows = {
      geom::BBox::FromCorners(0, 0, 50, 50)};
  const auto kept = FilterByWindows(dets, windows);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].box.cx, 10.0);
  EXPECT_TRUE(FilterByWindows(dets, {}).empty());
}

TEST(SimClockTest, ChargesAndMerges) {
  SimClock clock;
  clock.Charge(CostCategory::kDecode, 1.5);
  clock.Charge(CostCategory::kDetect, 2.0);
  EXPECT_DOUBLE_EQ(clock.Seconds(CostCategory::kDecode), 1.5);
  EXPECT_DOUBLE_EQ(clock.TotalSeconds(), 3.5);
  SimClock other;
  other.Charge(CostCategory::kDecode, 0.5);
  clock.Merge(other);
  EXPECT_DOUBLE_EQ(clock.Seconds(CostCategory::kDecode), 2.0);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace otif::models
