#include "models/tracker_net.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/cpu.h"
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
    std::vector<TrackerNet::PairInput> pair_inputs;
    for (const TrackerNet::PairIndex& p : pairs) {
      const track::Detection& last = f.lasts[static_cast<size_t>(p.track)];
      const track::Detection& det = f.dets[static_cast<size_t>(p.det)];
      pair_rows.push_back(
          TrackerNet::PairFeature(last, last, det, 10.0, 640, 360));
      pair_inputs.push_back({&last, &last, &det});
    }
    const std::vector<double> got =
        net.ScorePairs(net.TransposedWeights(), hidden, det_features, pairs,
                       pair_inputs, 10.0, 640, 360);
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
      net.AdvanceBatch(net.TransposedWeights(), StackRows(hidden),
                       StackRows(features));
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

// The pair features as PairFeature computed them before the vector pass:
// every feature one scalar expression, rounded to float on its own.
std::vector<float> ScalarPairFeature(const track::Detection& prev,
                                     const track::Detection& last,
                                     const track::Detection& candidate,
                                     double fps, double frame_w,
                                     double frame_h) {
  const double dt_sec =
      std::max(1.0, static_cast<double>(candidate.frame - last.frame)) / fps;
  std::vector<float> f(TrackerNet::kPairFeatureDim);
  f[0] = static_cast<float>(
      std::tanh((candidate.box.cx - last.box.cx) / (frame_w * dt_sec) * 4.0));
  f[1] = static_cast<float>(
      std::tanh((candidate.box.cy - last.box.cy) / (frame_h * dt_sec) * 4.0));
  f[2] = static_cast<float>(last.box.Iou(candidate.box));
  const double size_ratio = std::sqrt(std::max(1.0, candidate.box.Area()) /
                                      std::max(1.0, last.box.Area()));
  f[3] = static_cast<float>(std::clamp(std::log(size_ratio), -2.0, 2.0));
  f[4] = static_cast<float>(std::min(dt_sec, 4.0) / 4.0);
  double pred_cx = last.box.cx, pred_cy = last.box.cy;
  const int prev_span = last.frame - prev.frame;
  if (prev_span > 0) {
    const double frames_ahead = candidate.frame - last.frame;
    pred_cx += (last.box.cx - prev.box.cx) / prev_span * frames_ahead;
    pred_cy += (last.box.cy - prev.box.cy) / prev_span * frames_ahead;
  }
  const double size = std::max(4.0, std::sqrt(last.box.Area()));
  f[5] = static_cast<float>(
      std::tanh((candidate.box.cx - pred_cx) / (size * 2.0)));
  f[6] = static_cast<float>(
      std::tanh((candidate.box.cy - pred_cy) / (size * 2.0)));
  return f;
}

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

// Tracks (prev, last) and candidates in a 1280x720, 10 fps frame, with the
// cases every feature has to get right: a single-detection track (prev is
// last), a candidate on the last detection's frame, a candidate that does
// not move (tanh of +-0), boxes under one pixel of area and of no area, a
// box the size of the frame, and jumps far past tanh's saturation.
struct PairCases {
  std::vector<track::Detection> prevs, lasts, candidates;
  std::vector<TrackerNet::PairInput> inputs;
};

PairCases MakePairCases(size_t n, Rng* rng) {
  PairCases c;
  c.prevs.reserve(n);
  c.lasts.reserve(n);
  c.candidates.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int last_frame = 20 + static_cast<int>(rng->UniformInt(uint64_t{8}));
    track::Detection last = MakeDet(last_frame, rng->Uniform(0, 1280),
                                    rng->Uniform(0, 720), rng->Uniform(4, 200),
                                    rng->Uniform(4, 120));
    track::Detection prev =
        MakeDet(last_frame - 1 - static_cast<int>(rng->UniformInt(uint64_t{4})),
                last.box.cx + rng->Uniform(-40, 40),
                last.box.cy + rng->Uniform(-30, 30), last.box.w, last.box.h);
    track::Detection cand =
        MakeDet(last_frame + 1 + static_cast<int>(rng->UniformInt(uint64_t{8})),
                last.box.cx + rng->Uniform(-150, 150),
                last.box.cy + rng->Uniform(-100, 100),
                last.box.w * rng->Uniform(0.3, 3.0),
                last.box.h * rng->Uniform(0.3, 3.0));
    switch (i % 8) {
      case 1: prev = last; break;
      case 2: cand.frame = last.frame; break;
      case 3: cand.box = last.box; prev = last; break;
      case 4: cand.box = geom::BBox(cand.box.cx, cand.box.cy, 0.5, 0.25);
              last.box = geom::BBox(last.box.cx, last.box.cy, 0.0, 0.0);
              break;
      case 5: cand.box = geom::BBox(640, 360, 1280, 720); break;
      case 6: cand.box.cx += rng->Uniform(-1.0, 1.0) < 0 ? -5e5 : 5e5; break;
      default: break;
    }
    c.prevs.push_back(prev);
    c.lasts.push_back(last);
    c.candidates.push_back(cand);
  }
  for (size_t i = 0; i < n; ++i) {
    c.inputs.push_back({&c.prevs[i], &c.lasts[i], &c.candidates[i]});
  }
  return c;
}

// WritePairFeatures through every variant this CPU and build have must
// write, bit for bit, what the scalar expressions give, over more pairs
// than one stack chunk holds, into rows wider than the features (the
// floats between rows stay as they were).
TEST(PairFeatureTest, EveryVariantMatchesScalarExpressionsBitForBit) {
  constexpr int kDim = TrackerNet::kPairFeatureDim;
  constexpr size_t kStride = 31;
  Rng rng(31);
  for (const size_t n : {size_t{1}, size_t{5}, size_t{64}, size_t{150}}) {
    const PairCases c = MakePairCases(n, &rng);
    for (const Isa isa : {Isa::kBaseline, Isa::kAvx2, Isa::kAvx512}) {
      if (isa > PairFeatureIsa()) continue;
      std::vector<float> rows(n * kStride, -7.0f);
      TrackerNet::WritePairFeatures(isa, c.inputs, 10.0, 1280, 720, kStride,
                                    rows.data() + 3);
      for (size_t i = 0; i < n; ++i) {
        const std::vector<float> want = ScalarPairFeature(
            c.prevs[i], c.lasts[i], c.candidates[i], 10.0, 1280, 720);
        for (int j = 0; j < kDim; ++j) {
          ASSERT_EQ(Bits(want[static_cast<size_t>(j)]),
                    Bits(rows[i * kStride + 3 + static_cast<size_t>(j)]))
              << "isa " << static_cast<int>(isa) << ", " << n
              << " pairs, pair " << i << " feature " << j;
        }
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        const size_t col = (i + kStride - 3) % kStride;
        if (col >= kDim) {
          ASSERT_EQ(rows[i], -7.0f) << "float " << i;
        }
      }
      // PairFeature is the same writer, one row.
      const nn::Tensor one = TrackerNet::PairFeature(
          c.prevs[0], c.lasts[0], c.candidates[0], 10.0, 1280, 720);
      for (int j = 0; j < kDim; ++j) {
        EXPECT_EQ(Bits(one[j]), Bits(rows[3 + static_cast<size_t>(j)]));
      }
    }
  }
}

// Checks the `isa` tanh and clamped-log passes against the scalar calls,
// bit for bit, on arguments where vector and scalar results are most
// likely to part: saturating ones (|x| > 20, and past the clamp), tiny
// ones (< 2^-40, and log arguments within 2^-40 of 1), +-0 and exact 1,
// and subnormals. Lengths cover whole vectors and every tail.
void ExpectTanhAndLogMatchScalarOnEdgeArguments(Isa isa) {
  std::vector<double> tanh_args = {0.0,     -0.0,     0x1p-41, -0x1p-41,
                                   0x1p-60, -0x1p-90, 4e-320,  -4e-320,
                                   20.5,    -20.5,    35.0,    -700.0,
                                   1e300,   -1e300,   0.75,    -3.5};
  std::vector<double> log_args = {1.0,        1.0 + 0x1p-41, 1.0 - 0x1p-42,
                                  0x1p-60,    1e-300,        1e300,
                                  std::exp(2.0), std::exp(-2.0), 7.38905,
                                  0.135335,   2.5,           0.4,
                                  4e-320,     1.0 + 0x1p-52, 54.6,  0.02};
  for (size_t n = 0; n <= tanh_args.size(); ++n) {
    std::vector<float> got(n), want(n);
    TanhToFloats(isa, tanh_args.data(), n, got.data());
    TanhToFloats(Isa::kBaseline, tanh_args.data(), n, want.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits(static_cast<float>(std::tanh(tanh_args[i]))),
                Bits(want[i]));
      ASSERT_EQ(Bits(want[i]), Bits(got[i]))
          << "tanh(" << tanh_args[i] << "), n " << n;
    }
  }
  for (size_t n = 0; n <= log_args.size(); ++n) {
    std::vector<float> got(n), want(n);
    ClampedLogToFloats(isa, log_args.data(), n, got.data());
    ClampedLogToFloats(Isa::kBaseline, log_args.data(), n, want.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits(static_cast<float>(
                    std::clamp(std::log(log_args[i]), -2.0, 2.0))),
                Bits(want[i]));
      ASSERT_EQ(Bits(want[i]), Bits(got[i]))
          << "clamped log(" << log_args[i] << "), n " << n;
    }
  }
}

TEST(PairFeatureTest, Avx2MatchesScalarOnEdgeArguments) {
  if (PairFeatureIsa() < Isa::kAvx2) {
    GTEST_SKIP() << "this CPU (or build) has no AVX2 tanh pass";
  }
  ExpectTanhAndLogMatchScalarOnEdgeArguments(Isa::kAvx2);
}

TEST(PairFeatureTest, Avx512MatchesScalarOnEdgeArguments) {
  if (PairFeatureIsa() < Isa::kAvx512) {
    GTEST_SKIP() << "this CPU (or build) has no AVX-512 tanh pass";
  }
  ExpectTanhAndLogMatchScalarOnEdgeArguments(Isa::kAvx512);
}

// Random arguments cannot catch a broken rounding test: with no guard at
// all, libmvec's values still round like libm's almost always. So this
// feeds the `isa` passes arguments whose scalar result lies within 2^-44
// (relative) of a float rounding midpoint, well inside the 2^-40 guard:
// each must take the exact path, and every value must match. Ordinary
// arguments, by contrast, must almost all stay on the vector path.
void ExpectNearMidpointValuesTakeExactPath(Isa isa) {
  constexpr size_t kValues = 256;
  Rng rng(2718);
  // Arguments x = f^-1(target) with the target within 2^-44 of a midpoint,
  // kept only where the scalar f(x) itself lands that close.
  const auto near_midpoint = [&](auto f, auto f_inverse, double lo,
                                 double hi) {
    std::vector<double> args;
    while (args.size() < kValues) {
      const float v = static_cast<float>(rng.Uniform(lo, hi));
      if (v == 0.0f) continue;
      const double midpoint =
          0.5 * (static_cast<double>(v) +
                 static_cast<double>(std::nextafter(v, 2.0f * v)));
      const double target = midpoint * (1.0 + rng.Uniform(-1.0, 1.0) * 0x1p-44);
      const double x = f_inverse(target);
      if (std::abs(f(x) - midpoint) > std::abs(midpoint) * 0x1p-44) continue;
      args.push_back(x);
    }
    return args;
  };
  const std::vector<double> tanh_args = near_midpoint(
      [](double x) { return std::tanh(x); },
      [](double t) { return std::atanh(t); }, -0.95, 0.95);
  const std::vector<double> log_args = near_midpoint(
      [](double x) { return std::clamp(std::log(x), -2.0, 2.0); },
      [](double t) { return std::exp(t); }, -1.99, 1.99);
  std::vector<float> got(kValues), want(kValues);
  EXPECT_EQ(TanhToFloats(isa, tanh_args.data(), kValues, got.data()),
            kValues);
  TanhToFloats(Isa::kBaseline, tanh_args.data(), kValues, want.data());
  for (size_t i = 0; i < kValues; ++i) {
    ASSERT_EQ(Bits(want[i]), Bits(got[i])) << "tanh(" << tanh_args[i] << ")";
  }
  EXPECT_EQ(ClampedLogToFloats(isa, log_args.data(), kValues, got.data()),
            kValues);
  ClampedLogToFloats(Isa::kBaseline, log_args.data(), kValues, want.data());
  for (size_t i = 0; i < kValues; ++i) {
    ASSERT_EQ(Bits(want[i]), Bits(got[i])) << "log(" << log_args[i] << ")";
  }

  // Ordinary arguments: 4,096 of each, of which at most a handful may fail
  // the test (a test that failed lanes wholesale would keep the bits and
  // lose the speed).
  std::vector<double> x(4096), y(4096);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Gaussian(0.0, 1.5);
    y[i] = std::exp(rng.Uniform(-2.5, 2.5));
  }
  std::vector<float> out(x.size());
  EXPECT_LT(TanhToFloats(isa, x.data(), x.size(), out.data()), 8u);
  EXPECT_LT(ClampedLogToFloats(isa, y.data(), y.size(), out.data()), 8u);
}

TEST(PairFeatureTest, RoundingTestSendsNearMidpointValuesToExactPath) {
  if (PairFeatureIsa() < Isa::kAvx2) {
    GTEST_SKIP() << "this CPU (or build) has no AVX2 tanh pass";
  }
  ExpectNearMidpointValuesTakeExactPath(Isa::kAvx2);
}

TEST(PairFeatureTest, Avx512RoundingTestSendsNearMidpointValuesToExactPath) {
  if (PairFeatureIsa() < Isa::kAvx512) {
    GTEST_SKIP() << "this CPU (or build) has no AVX-512 tanh pass";
  }
  ExpectNearMidpointValuesTakeExactPath(Isa::kAvx512);
}

// Keeps the fast path from going missing: an x86-64 glibc 2.35 build on an
// AVX2 CPU (every CI runner) must run a vector pass.
TEST(PairFeatureTest, PicksTheWidestVariantTheCpuHas) {
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 35))
  EXPECT_EQ(PairFeatureIsa(), CpuIsa());
#else
  EXPECT_EQ(PairFeatureIsa(), Isa::kBaseline);
#endif
}

// ScorePairs on frames the tracker makes: tracks with two detections (so
// the velocity term is live), pair lists that leave tracks and detections
// out, and lists shorter and longer than one pair-feature chunk and one
// GEMM row block.
TEST(TrackerNetTest, ScorePairsMatchesScorePairOverRaggedPairLists) {
  const TrackerNet& net = *TrainedNet();
  Rng rng(37);
  constexpr int kTracks = 12, kDets = 15;
  const double fw = 1280, fh = 720, fps = 10.0;
  const PairCases c = MakePairCases(kTracks, &rng);
  std::vector<nn::Tensor> hidden, det_features;
  for (int t = 0; t < kTracks; ++t) {
    nn::Tensor h = net.InitialHidden();
    for (int s = 0; s <= t % 3; ++s) {
      h = net.Advance(h, TrackerNet::DetFeature(c.lasts[static_cast<size_t>(t)],
                                                s + 1, fps, fw, fh, 0.5, 0.1));
    }
    hidden.push_back(std::move(h));
  }
  std::vector<track::Detection> dets;
  for (int d = 0; d < kDets; ++d) {
    dets.push_back(c.candidates[static_cast<size_t>(d % kTracks)]);
    dets.back().box.cx += 3.0 * d;
    det_features.push_back(TrackerNet::DetFeature(
        dets.back(), 2, fps, fw, fh, rng.Uniform(0.2, 0.8), 0.1));
  }
  const nn::Tensor hidden_rows = StackRows(hidden);
  const nn::Tensor det_rows = StackRows(det_features);
  for (const size_t n : {size_t{1}, size_t{7}, size_t{9}, size_t{65},
                         size_t{150}}) {
    std::vector<TrackerNet::PairIndex> pairs;
    std::vector<TrackerNet::PairInput> inputs;
    while (pairs.size() < n) {
      const int t = static_cast<int>(rng.UniformInt(uint64_t{kTracks - 1}));
      const int d = static_cast<int>(rng.UniformInt(uint64_t{kDets - 1}));
      pairs.push_back({t, d});
      inputs.push_back({&c.prevs[static_cast<size_t>(t)],
                        &c.lasts[static_cast<size_t>(t)],
                        &dets[static_cast<size_t>(d)]});
    }
    const std::vector<double> got =
        net.ScorePairs(net.TransposedWeights(), hidden_rows, det_rows, pairs,
                       inputs, fps, fw, fh);
    ASSERT_EQ(got.size(), n);
    for (size_t i = 0; i < n; ++i) {
      const double want = net.ScorePair(
          hidden[static_cast<size_t>(pairs[i].track)],
          det_features[static_cast<size_t>(pairs[i].det)],
          TrackerNet::PairFeature(*inputs[i].prev, *inputs[i].last,
                                  *inputs[i].candidate, fps, fw, fh));
      EXPECT_EQ(want, got[i]) << n << " pairs, pair " << i;
    }
  }
}

}  // namespace
}  // namespace otif::models
