#include "models/proxy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
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

TEST(ProxyModelTest, ScoreMatchesReferenceExactly) {
  // Every standard resolution: their conv grids include odd row and column
  // counts (88x56's last conv is 7x11), which the tiles' row and column
  // remainders must handle. Each model trains a few steps first, so that
  // its biases are no longer all +0: a tile that added the bias last
  // instead of first would then differ.
  for (const ProxyResolution& res : StandardProxyResolutions()) {
    const std::string tag = std::to_string(res.world_w) + "x" +
                            std::to_string(res.world_h) + " ";
    ProxyModel model(res, 21);
    const int w = res.raster_w(), h = res.raster_h();
    // Distinct frames. A uniform 0.5 frame stages to exact +0s; a frame
    // of hard black and white blocks drives many ReLU inputs below zero,
    // so the next conv's planes hold exact zeros from the ReLU; NaN pixels
    // make NaN activations, which ReLU turns into +0 like any negative.
    std::vector<video::Image> frames;
    frames.emplace_back(w, h, 0.2f);
    frames.emplace_back(w, h, 0.8f);
    frames.emplace_back(w, h, 0.5f);
    video::Image gradient(w, h, 0.0f);
    video::Image blocks(w, h, 0.0f);
    video::Image nans(w, h, 0.5f);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        gradient.set(x, y, static_cast<float>(x + y) / (w + h));
        blocks.set(x, y, ((x / 5 + y / 3) % 2) == 0 ? 0.0f : 1.0f);
        if ((x * 7 + y * 3) % 11 == 0) nans.set(x, y, std::nanf(""));
      }
    }
    frames.push_back(gradient);
    frames.push_back(blocks);
    frames.push_back(nans);
    nn::Tensor labels({res.grid_h(), res.grid_w()});
    for (int64_t i = 0; i < labels.size(); i += 3) labels[i] = 1.0f;
    for (int step = 0; step < 4; ++step) {
      model.TrainStep(frames[static_cast<size_t>(step) % 4], labels);
    }

    const auto expect_reference = [&](const nn::Tensor& got, size_t i,
                                      const std::string& pass) {
      const nn::Tensor want = model.ScoreReference(frames[i]);
      ASSERT_EQ(want.shape(), got.shape()) << pass << " frame " << i;
      for (int64_t j = 0; j < want.size(); ++j) {
        ASSERT_EQ(std::bit_cast<uint32_t>(want[j]),
                  std::bit_cast<uint32_t>(got[j]))
            << pass << " frame " << i << " cell " << j;
      }
    };
    // Twice through the frames in alternating order, so each Score reuses
    // arena memory a different frame's pass left behind: a read of stale
    // scratch would show as a mismatch.
    for (size_t i = 0; i < frames.size(); ++i) {
      expect_reference(model.Score(frames[i]), i, tag + "forward");
    }
    for (size_t i = frames.size(); i-- > 0;) {
      expect_reference(model.Score(frames[i]), i, tag + "backward");
    }
    // Once more on a fresh thread, whose arena starts cold.
    std::vector<nn::Tensor> fresh;
    std::thread worker([&] {
      for (const video::Image& f : frames) fresh.push_back(model.Score(f));
    });
    worker.join();
    ASSERT_EQ(fresh.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      expect_reference(fresh[i], i, tag + "fresh thread");
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
    for (const video::Image& f : frames) model.Score(f);
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

TEST(ProxyModelDeathTest, RejectsFrameNotAtRasterSize) {
  // Every caller renders at the raster size; nothing resizes.
  ProxyModel model({160, 96}, 23);  // 40x24 raster.
  const nn::Tensor labels(
      {model.resolution().grid_h(), model.resolution().grid_w()});
  EXPECT_DEATH(model.Score(video::Image(80, 24)),
               "proxy input is 40x24, got 80x24");
  EXPECT_DEATH(model.Score(video::Image(40, 48)),
               "proxy input is 40x24, got 40x48");
  EXPECT_DEATH(model.Score(video::Image()), "proxy input is 40x24, got 0x0");
  EXPECT_DEATH(model.TrainStep(video::Image(20, 12), labels),
               "proxy input is 40x24, got 20x12");
}

TEST(ProxyModelTest, StageIntoWritesCenteredPixels) {
  ProxyModel model({160, 96}, 24);
  const int rw = model.resolution().raster_w();
  const int rh = model.resolution().raster_h();
  video::Image frame(rw, rh, 0.0f);
  for (int y = 0; y < rh; ++y) {
    for (int x = 0; x < rw; ++x) {
      frame.set(x, y, static_cast<float>(x + y) / (rw + rh));
    }
  }
  // Two zero-filled planes; stage into the second.
  const size_t plane = static_cast<size_t>(rh) * rw;
  std::vector<float> planes(2 * plane, 0.0f);
  model.StageInto(frame, planes.data() + plane);
  for (int y = 0; y < rh; ++y) {
    for (int x = 0; x < rw; ++x) {
      ASSERT_EQ(planes[plane + static_cast<size_t>(y) * rw + x],
                frame.at(x, y) - 0.5f)
          << x << "," << y;
    }
  }
  // Plane 0 untouched (still the zero fill).
  for (size_t i = 0; i < plane; ++i) ASSERT_EQ(planes[i], 0.0f) << i;
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
