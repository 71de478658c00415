#include "models/tracker_net.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace otif::models {
namespace {

track::Detection MakeDet(int frame, double cx, double cy, double w = 30,
                         double h = 20) {
  track::Detection d;
  d.frame = frame;
  d.box = geom::BBox(cx, cy, w, h);
  return d;
}

TEST(TrackerNetTest, DetFeatureLayout) {
  track::Detection d = MakeDet(10, 320, 180, 64, 36);
  nn::Tensor f = TrackerNet::DetFeature(d, 5, 10.0, 640, 360, 0.4, 0.1);
  ASSERT_EQ(f.size(), TrackerNet::kDetFeatureDim);
  EXPECT_FLOAT_EQ(f[0], 0.5f);
  EXPECT_FLOAT_EQ(f[1], 0.5f);
  EXPECT_FLOAT_EQ(f[2], 0.1f);
  EXPECT_FLOAT_EQ(f[3], 0.1f);
  EXPECT_FLOAT_EQ(f[4], 0.125f);  // 0.5 s / 4 s cap.
  EXPECT_FLOAT_EQ(f[5], 0.4f);
  EXPECT_FLOAT_EQ(f[6], 0.1f);
}

TEST(TrackerNetTest, PairFeatureDetectsMotionDirection) {
  track::Detection last = MakeDet(0, 100, 100);
  track::Detection right = MakeDet(10, 200, 100);
  track::Detection left = MakeDet(10, 0, 100);
  nn::Tensor fr = TrackerNet::PairFeature(last, last, right, 10.0, 640, 360);
  nn::Tensor fl = TrackerNet::PairFeature(last, last, left, 10.0, 640, 360);
  EXPECT_GT(fr[0], 0.0f);
  EXPECT_LT(fl[0], 0.0f);
}

TEST(TrackerNetTest, PairFeatureIouAndElapsed) {
  track::Detection last = MakeDet(0, 100, 100, 40, 30);
  track::Detection same = MakeDet(5, 100, 100, 40, 30);
  nn::Tensor f = TrackerNet::PairFeature(last, last, same, 10.0, 640, 360);
  EXPECT_FLOAT_EQ(f[2], 1.0f);   // Perfect IoU.
  EXPECT_FLOAT_EQ(f[3], 0.0f);   // Same size.
  EXPECT_FLOAT_EQ(f[4], 0.125f); // 0.5 s / 4.
}

TEST(TrackerNetTest, AdvanceChangesHidden) {
  TrackerNet net(1);
  nn::Tensor h0 = net.InitialHidden();
  track::Detection d = MakeDet(0, 100, 100);
  nn::Tensor f = TrackerNet::DetFeature(d, 1, 10.0, 640, 360, 0.5, 0.1);
  nn::Tensor h1 = net.Advance(h0, f);
  EXPECT_EQ(h1.size(), net.hidden_size());
  double diff = 0.0;
  for (int64_t i = 0; i < h1.size(); ++i) diff += std::abs(h1[i] - h0[i]);
  EXPECT_GT(diff, 1e-3);
}

TEST(TrackerNetTest, ScorePairInUnitInterval) {
  TrackerNet net(2);
  nn::Tensor h = net.InitialHidden();
  track::Detection a = MakeDet(0, 100, 100);
  track::Detection b = MakeDet(4, 120, 100);
  nn::Tensor fa = TrackerNet::DetFeature(a, 1, 10.0, 640, 360, 0.5, 0.1);
  h = net.Advance(h, fa);
  nn::Tensor fb = TrackerNet::DetFeature(b, 4, 10.0, 640, 360, 0.5, 0.1);
  nn::Tensor pair = TrackerNet::PairFeature(a, a, b, 10.0, 640, 360);
  const double p = net.ScorePair(h, fb, pair);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

// A track moving with constant velocity in a 640x360, 10 fps frame, seen
// at `gap`; candidates: the true next detection plus two decoys (one
// static, one moving the wrong way).
TrackerNet::Example MotionExample(Rng* rng, int gap) {
  const double fw = 640, fh = 360, fps = 10.0;
  const double vx = rng->Uniform(-30, 30);
  const double vy = rng->Uniform(-20, 20);
  double cx = rng->Uniform(100, 540), cy = rng->Uniform(80, 280);
  TrackerNet::Example ex;
  track::Detection last;
  int frame = 0;
  const int prefix_len = 3;
  for (int i = 0; i < prefix_len; ++i) {
    track::Detection d = MakeDet(frame, cx, cy);
    ex.prefix_features.push_back(
        TrackerNet::DetFeature(d, gap, fps, fw, fh, 0.5, 0.1));
    last = d;
    cx += vx * gap / fps * fps / 10.0;  // vx is px per frame * 10.
    cy += vy * gap / fps * fps / 10.0;
    frame += gap;
  }
  // True continuation follows the motion; decoys do not.
  track::Detection truth = MakeDet(frame, cx, cy);
  track::Detection decoy1 = MakeDet(frame, cx - vx * 3, cy - vy * 3);
  track::Detection decoy2 =
      MakeDet(frame, rng->Uniform(50, 590), rng->Uniform(50, 310));
  std::vector<track::Detection> cands = {decoy1, truth, decoy2};
  ex.positive_index = 1;
  for (const auto& c : cands) {
    ex.candidate_features.push_back(
        TrackerNet::DetFeature(c, gap, fps, fw, fh, 0.5, 0.1));
    ex.candidate_pair_features.push_back(
        TrackerNet::PairFeature(last, last, c, fps, fw, fh));
  }
  return ex;
}

// Synthesizes linear-motion tracks and trains the net to pick the true
// continuation against decoys; checks it learns motion consistency.
TEST(TrackerNetTest, LearnsMotionConsistentMatching) {
  TrackerNet net(3);
  Rng rng(42);

  double loss = 1.0;
  for (int step = 0; step < 800; ++step) {
    const int gap = 1 << rng.UniformInt(uint64_t{4});  // 1, 2, 4, 8.
    loss = net.TrainStep(MotionExample(&rng, gap));
  }
  EXPECT_LT(loss, 0.6);

  // Evaluation: the true candidate must outscore decoys most of the time.
  int correct = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    const int gap = 1 << rng.UniformInt(uint64_t{4});
    TrackerNet::Example ex = MotionExample(&rng, gap);
    nn::Tensor h = net.InitialHidden();
    for (const auto& f : ex.prefix_features) h = net.Advance(h, f);
    int best = -1;
    double best_score = -1;
    for (size_t c = 0; c < ex.candidate_features.size(); ++c) {
      const double s = net.ScorePair(h, ex.candidate_features[c],
                                     ex.candidate_pair_features[c]);
      if (s > best_score) {
        best_score = s;
        best = static_cast<int>(c);
      }
    }
    if (best == ex.positive_index) ++correct;
  }
  EXPECT_GT(correct, trials * 2 / 3)
      << "trained tracker picks the true continuation only " << correct
      << "/" << trials;
}

// Stacks 1-D tensors of equal size as the rows of one matrix.
nn::Tensor StackRows(const std::vector<nn::Tensor>& rows) {
  const int cols = static_cast<int>(rows.front().size());
  nn::Tensor m({static_cast<int>(rows.size()), cols});
  for (size_t r = 0; r < rows.size(); ++r) {
    std::copy_n(rows[r].data(), cols, m.data() + r * cols);
  }
  return m;
}

// One frame's worth of batch-path inputs from a trained net: four tracks
// whose hidden states are zero (track 0) or advanced 1, 3 and 2 steps, and
// five detections in a 640x360 frame.
struct FrameInputs {
  std::vector<nn::Tensor> hidden;
  std::vector<track::Detection> lasts;
  std::vector<nn::Tensor> det_features;
  std::vector<track::Detection> dets;
};

FrameInputs MakeFrame(const TrackerNet& net, Rng* rng) {
  const double fw = 640, fh = 360, fps = 10.0;
  FrameInputs f;
  for (const int steps : {0, 1, 3, 2}) {
    nn::Tensor h = net.InitialHidden();
    track::Detection d =
        MakeDet(0, rng->Uniform(50, 590), rng->Uniform(50, 310));
    for (int s = 0; s < steps; ++s) {
      d = MakeDet(2 * s, d.box.cx + rng->Uniform(-8, 8),
                  d.box.cy + rng->Uniform(-6, 6));
      h = net.Advance(h, TrackerNet::DetFeature(d, 2, fps, fw, fh,
                                                rng->Uniform(0.2, 0.8),
                                                rng->Uniform(0.0, 0.2)));
    }
    f.hidden.push_back(std::move(h));
    f.lasts.push_back(d);
  }
  for (int d = 0; d < 5; ++d) {
    const track::Detection det = MakeDet(
        8, rng->Uniform(50, 590), rng->Uniform(50, 310),
        rng->Uniform(10, 60), rng->Uniform(10, 40));
    f.det_features.push_back(TrackerNet::DetFeature(
        det, 2, fps, fw, fh, rng->Uniform(0.2, 0.8), rng->Uniform(0.0, 0.2)));
    f.dets.push_back(det);
  }
  return f;
}

TrackerNet* TrainedNet() {
  static TrackerNet* net = [] {
    auto* n = new TrackerNet(6);
    Rng rng(17);
    for (int step = 0; step < 200; ++step) {
      n->TrainStep(MotionExample(&rng, 1 << rng.UniformInt(uint64_t{4})));
    }
    return n;
  }();
  return net;
}

// The batched scorer must reproduce ScorePair bit for bit on every pair
// list shape the tracker makes.
TEST(TrackerNetTest, ScorePairsMatchesScorePairBitForBit) {
  const TrackerNet& net = *TrainedNet();
  Rng rng(23);
  const FrameInputs f = MakeFrame(net, &rng);
  const nn::Tensor hidden = StackRows(f.hidden);
  const nn::Tensor det_features = StackRows(f.det_features);

  using Pairs = std::vector<TrackerNet::PairIndex>;
  // Ragged (track 3 and detection 4 in no pair), a single pair, and every
  // pair of the frame (20 rows: full and edge GEMM tiles).
  Pairs every;
  for (int t = 0; t < 4; ++t) {
    for (int d = 0; d < 5; ++d) every.push_back({t, d});
  }
  const std::vector<Pairs> lists = {
      {{0, 0}, {0, 1}, {0, 2}, {1, 3}, {2, 0}, {2, 3}, {2, 1}},
      {{1, 2}},
      every};
  for (const Pairs& pairs : lists) {
    std::vector<nn::Tensor> pair_rows;
    for (const TrackerNet::PairIndex& p : pairs) {
      const track::Detection& last = f.lasts[static_cast<size_t>(p.track)];
      pair_rows.push_back(TrackerNet::PairFeature(
          last, last, f.dets[static_cast<size_t>(p.det)], 10.0, 640, 360));
    }
    const std::vector<double> got =
        net.ScorePairs(hidden, det_features, pairs, StackRows(pair_rows));
    ASSERT_EQ(got.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double want =
          net.ScorePair(f.hidden[static_cast<size_t>(pairs[i].track)],
                        f.det_features[static_cast<size_t>(pairs[i].det)],
                        pair_rows[i]);
      EXPECT_EQ(want, got[i]) << pairs.size() << " pairs, pair " << i
                              << " (track " << pairs[i].track << ", det "
                              << pairs[i].det << ")";
    }
  }
}

// The batched GRU fold must reproduce Advance bit for bit, for rows that
// start from the zero state and rows that continue an advanced one.
TEST(TrackerNetTest, AdvanceBatchMatchesAdvanceBitForBit) {
  const TrackerNet& net = *TrainedNet();
  Rng rng(29);
  const FrameInputs f = MakeFrame(net, &rng);
  // Rows: the four tracks, then a fresh track from detection 4 (zero
  // state), as the tracker stacks matched tracks before new ones.
  std::vector<nn::Tensor> hidden = f.hidden;
  hidden.push_back(net.InitialHidden());
  const std::vector<nn::Tensor>& features = f.det_features;
  const nn::Tensor got =
      net.AdvanceBatch(StackRows(hidden), StackRows(features));
  ASSERT_EQ(got.ndim(), 2);
  ASSERT_EQ(got.dim(0), 5);
  ASSERT_EQ(got.dim(1), net.hidden_size());
  for (size_t r = 0; r < hidden.size(); ++r) {
    const nn::Tensor want = net.Advance(hidden[r], features[r]);
    for (int i = 0; i < net.hidden_size(); ++i) {
      ASSERT_EQ(want[i], got[static_cast<int64_t>(r) * net.hidden_size() + i])
          << "row " << r << " unit " << i;
    }
  }
}

TEST(TrackerNetTest, TrainStepHandlesNoCandidates) {
  TrackerNet net(4);
  TrackerNet::Example ex;
  ex.prefix_features.push_back(TrackerNet::DetFeature(
      MakeDet(0, 100, 100), 1, 10.0, 640, 360, 0.5, 0.1));
  EXPECT_DOUBLE_EQ(net.TrainStep(ex), 0.0);
}

TEST(TrackerNetTest, TrainStepAllNegatives) {
  TrackerNet net(5);
  TrackerNet::Example ex;
  track::Detection a = MakeDet(0, 100, 100);
  ex.prefix_features.push_back(
      TrackerNet::DetFeature(a, 1, 10.0, 640, 360, 0.5, 0.1));
  track::Detection far = MakeDet(4, 600, 300);
  ex.candidate_features.push_back(
      TrackerNet::DetFeature(far, 4, 10.0, 640, 360, 0.5, 0.1));
  ex.candidate_pair_features.push_back(
      TrackerNet::PairFeature(a, a, far, 10.0, 640, 360));
  ex.positive_index = -1;
  const double loss = net.TrainStep(ex);
  EXPECT_GE(loss, 0.0);
}

}  // namespace
}  // namespace otif::models
