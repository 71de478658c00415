#include "models/proxy.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "models/detector.h"
#include "nn/arena.h"
#include "sim/dataset.h"
#include "sim/raster.h"
#include "sim/world.h"
#include "util/rng.h"

namespace otif::models {
namespace {

TEST(ProxyResolutionTest, StandardResolutionsWellFormed) {
  const auto resolutions = StandardProxyResolutions();
  ASSERT_EQ(resolutions.size(), 5u);  // Paper trains 5 resolutions.
  for (const ProxyResolution& r : resolutions) {
    EXPECT_EQ(r.world_w % 32, 0);
    EXPECT_EQ(r.world_h % 32, 0);
    EXPECT_EQ(r.grid_w(), r.world_w / 32);
    EXPECT_EQ(r.grid_h(), r.world_h / 32);
    EXPECT_GT(r.world_pixels(), 0.0);
  }
  // Sorted from largest to smallest.
  for (size_t i = 1; i < resolutions.size(); ++i) {
    EXPECT_LT(resolutions[i].world_pixels(), resolutions[i - 1].world_pixels());
  }
}

TEST(ProxyModelTest, ScoreShapeAndRange) {
  ProxyModel model({160, 96}, 1);
  video::Image frame(40, 24, 0.5f);
  nn::Tensor probs = model.Score(frame);
  EXPECT_EQ(probs.dim(0), model.resolution().grid_h());
  EXPECT_EQ(probs.dim(1), model.resolution().grid_w());
  for (int64_t i = 0; i < probs.size(); ++i) {
    EXPECT_GE(probs[i], 0.0f);
    EXPECT_LE(probs[i], 1.0f);
  }
}

TEST(ProxyModelTest, ScoreBatchMatchesSingleScoresExactly) {
  ProxyModel model({160, 96}, 21);
  // Distinct frames, including one at a non-raster size to exercise the
  // shared resize path.
  std::vector<video::Image> frames;
  frames.emplace_back(40, 24, 0.2f);
  frames.emplace_back(40, 24, 0.8f);
  frames.emplace_back(80, 48, 0.5f);
  video::Image gradient(40, 24, 0.0f);
  for (int y = 0; y < gradient.height(); ++y) {
    for (int x = 0; x < gradient.width(); ++x) {
      gradient.set(x, y, static_cast<float>(x + y) / 64.0f);
    }
  }
  frames.push_back(gradient);

  std::vector<const video::Image*> ptrs;
  for (const video::Image& f : frames) ptrs.push_back(&f);
  const std::vector<nn::Tensor> batched = model.ScoreBatch(ptrs);
  ASSERT_EQ(batched.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    const nn::Tensor want = model.Score(frames[i]);
    ASSERT_EQ(want.shape(), batched[i].shape());
    for (int64_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(want[j], batched[i][j]) << "frame " << i << " cell " << j;
    }
  }
}

TEST(ProxyModelTest, TrainingStaysWithinTheArenaFirstChunk) {
  // Training's scratch (the conv backward's weight panel and row tiles of
  // D) must fit the first arena chunk, which scoring reserves anyway, so
  // training adds no arena memory. A fresh thread starts with an empty
  // arena; the largest resolution has the largest panels.
  size_t after_score = 0;
  size_t after_train = 0;
  std::thread worker([&] {
    ProxyModel model(StandardProxyResolutions()[0], 23);
    const ProxyResolution& res = model.resolution();
    std::vector<video::Image> frames;
    for (int i = 0; i < 4; ++i) {
      frames.emplace_back(res.raster_w(), res.raster_h(), 0.2f * i);
    }
    std::vector<const video::Image*> ptrs;
    for (const video::Image& f : frames) ptrs.push_back(&f);
    model.ScoreBatch(ptrs);
    after_score = nn::ScratchArena::ThreadLocal().FloatsReserved();
    nn::Tensor labels({res.grid_h(), res.grid_w()});
    for (int64_t i = 0; i < labels.size(); i += 3) labels[i] = 1.0f;
    for (const video::Image& f : frames) model.TrainStep(f, labels);
    after_train = nn::ScratchArena::ThreadLocal().FloatsReserved();
  });
  worker.join();
  EXPECT_EQ(after_score, nn::ScratchArena::kMinChunkFloats);
  EXPECT_EQ(after_train, nn::ScratchArena::kMinChunkFloats);
}

TEST(ProxyModelTest, ScoreBatchEmptyIsNoop) {
  ProxyModel model({160, 96}, 22);
  EXPECT_TRUE(model.ScoreBatch({}).empty());
}

TEST(ProxyModelTest, ScoreOfResizedFrameMatchesDirectScore) {
  // The fused resize+center staging path must be bit-identical to resizing
  // first and scoring the raster-size result.
  ProxyModel model({160, 96}, 23);
  video::Image big(80, 48, 0.0f);
  for (int y = 0; y < big.height(); ++y) {
    for (int x = 0; x < big.width(); ++x) {
      big.set(x, y, static_cast<float>((x * 13 + y * 7) % 41) / 40.0f);
    }
  }
  const video::Image sized =
      big.Resized(model.resolution().raster_w(),
                  model.resolution().raster_h());
  const nn::Tensor via_resize = model.Score(sized);
  const nn::Tensor fused = model.Score(big);
  ASSERT_EQ(via_resize.shape(), fused.shape());
  for (int64_t i = 0; i < via_resize.size(); ++i) {
    ASSERT_EQ(via_resize[i], fused[i]) << "cell " << i;
  }
}

TEST(ProxyModelTest, FillInputSliceWritesCenteredPixels) {
  ProxyModel model({160, 96}, 24);
  const int rw = model.resolution().raster_w();
  const int rh = model.resolution().raster_h();
  video::Image frame(rw, rh, 0.0f);
  for (int y = 0; y < rh; ++y) {
    for (int x = 0; x < rw; ++x) {
      frame.set(x, y, static_cast<float>(x + y) / (rw + rh));
    }
  }
  nn::Tensor batch({2, 1, rh, rw});
  model.FillInputSlice(frame, &batch, 1);
  for (int y = 0; y < rh; ++y) {
    for (int x = 0; x < rw; ++x) {
      ASSERT_EQ(batch.at4(1, 0, y, x), frame.at(x, y) - 0.5f)
          << x << "," << y;
    }
  }
  // Slice 0 untouched (still the constructor's zero fill).
  EXPECT_EQ(batch.at4(0, 0, 0, 0), 0.0f);
}

TEST(ProxyModelDeathTest, FillInputSliceValidatesShape) {
  ProxyModel model({160, 96}, 25);
  video::Image frame(40, 24, 0.5f);
  nn::Tensor wrong({2, 1, 10, 10});
  EXPECT_DEATH(model.FillInputSlice(frame, &wrong, 0), "Check failed");
  nn::Tensor batch({2, 1, model.resolution().raster_h(),
                    model.resolution().raster_w()});
  EXPECT_DEATH(model.FillInputSlice(frame, &batch, 2), "Check failed");
}

TEST(ProxyModelTest, CellRectTilesFrame) {
  ProxyModel model({160, 96}, 2);
  const double fw = 320, fh = 240;
  double total_area = 0.0;
  for (int gy = 0; gy < model.resolution().grid_h(); ++gy) {
    for (int gx = 0; gx < model.resolution().grid_w(); ++gx) {
      total_area += model.CellRect(gx, gy, fw, fh).Area();
    }
  }
  EXPECT_NEAR(total_area, fw * fh, 1.0);
}

TEST(ProxyModelTest, MakeLabelsMarksIntersectingCells) {
  ProxyModel model({160, 96}, 3);
  track::FrameDetections dets;
  track::Detection d;
  d.box = geom::BBox(10, 10, 20, 20);  // Top-left corner of a 320x240 frame.
  dets.push_back(d);
  nn::Tensor labels = model.MakeLabels(dets, 320, 240);
  EXPECT_FLOAT_EQ(labels[0], 1.0f);  // Cell (0,0) intersects.
  // The far corner cell must be negative.
  EXPECT_FLOAT_EQ(labels[labels.size() - 1], 0.0f);
  // Some cells positive, most negative.
  int positives = 0;
  for (int64_t i = 0; i < labels.size(); ++i) {
    if (labels[i] > 0.5f) ++positives;
  }
  EXPECT_GE(positives, 1);
  EXPECT_LT(positives, labels.size() / 2);
}

TEST(ProxyModelTest, LearnsToLocalizeObjects) {
  // End-to-end: train on rasterized synthetic frames with ground-truth
  // labels; the trained model must score object cells above empty cells.
  sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  sim::Clip clip = sim::SimulateClip(spec, 5, 400);
  sim::Rasterizer raster(&clip);
  ProxyModel model({160, 96}, 7);
  Rng rng(11);

  auto sampler = [&]() {
    // Sample frames that contain at least one object.
    for (;;) {
      const int f = static_cast<int>(rng.UniformInt(
          static_cast<uint64_t>(clip.num_frames())));
      const auto dets = clip.GroundTruthDetections(f);
      if (dets.empty()) continue;
      ProxySample s;
      s.frame = raster.Render(f, model.resolution().raster_w(),
                              model.resolution().raster_h());
      s.labels = model.MakeLabels(dets, spec.width, spec.height);
      return s;
    }
  };
  const double final_loss = TrainProxyModel(&model, sampler, 250);
  EXPECT_LT(final_loss, 0.5);

  // Evaluate separation on held-out frames.
  sim::Clip test_clip = sim::SimulateClip(spec, 6, 200);
  sim::Rasterizer test_raster(&test_clip);
  double pos_score = 0.0, neg_score = 0.0;
  int pos_n = 0, neg_n = 0;
  for (int f = 0; f < test_clip.num_frames(); f += 10) {
    const auto dets = test_clip.GroundTruthDetections(f);
    video::Image frame = test_raster.Render(
        f, model.resolution().raster_w(), model.resolution().raster_h());
    nn::Tensor probs = model.Score(frame);
    nn::Tensor labels = model.MakeLabels(dets, spec.width, spec.height);
    for (int64_t i = 0; i < probs.size(); ++i) {
      if (labels[i] > 0.5f) {
        pos_score += probs[i];
        ++pos_n;
      } else {
        neg_score += probs[i];
        ++neg_n;
      }
    }
  }
  ASSERT_GT(pos_n, 0);
  ASSERT_GT(neg_n, 0);
  EXPECT_GT(pos_score / pos_n, neg_score / neg_n + 0.2)
      << "trained proxy does not separate object cells from empty cells";
}

}  // namespace
}  // namespace otif::models
