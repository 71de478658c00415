// Micro-benchmarks (google-benchmark) for the individual components:
// frame simulation, rasterization and its sensor noise, proxy CNN
// inference, cell grouping, Hungarian assignment, tracker steps, track
// clustering, and query post-processing.

#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/cell_grouping.h"
#include "models/proxy.h"
#include "models/tracker_net.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "obs/introspection_server.h"
#include "query/queries.h"
#include "sim/raster.h"
#include "track/hungarian.h"
#include "track/recurrent_tracker.h"
#include "track/refine.h"
#include "track/sort_tracker.h"
#include "util/rng.h"

namespace otif {
namespace {

sim::Clip& BenchClip() {
  static sim::Clip clip = sim::SimulateClip(
      sim::MakeDataset(sim::DatasetId::kSynthetic), 77, 300);
  return clip;
}

void BM_SimulateClip(benchmark::State& state) {
  const sim::DatasetSpec spec = sim::MakeDataset(sim::DatasetId::kSynthetic);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::SimulateClip(spec, 1, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_SimulateClip)->Arg(100)->Arg(400);

// The sizes runs render at: the tracker's appearance raster (40x24) and the
// largest proxy resolution's raster (104x64, the one perfbench extracts at).
void RasterSizes(benchmark::internal::Benchmark* b) {
  b->Args({models::TrackerNet::kAppearanceRasterW,
           models::TrackerNet::kAppearanceRasterH});
  const models::ProxyResolution proxy = models::StandardProxyResolutions()[0];
  b->Args({proxy.raster_w(), proxy.raster_h()});
}

void BM_RasterizeFrame(benchmark::State& state) {
  sim::Rasterizer raster(&BenchClip());
  int frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(raster.Render(frame++ % 300,
                                           static_cast<int>(state.range(0)),
                                           static_cast<int>(state.range(1))));
  }
}
BENCHMARK(BM_RasterizeFrame)->Apply(RasterSizes);

// The sensor-noise pass alone over a 104x64 frame, per variant: 0 is the
// scalar loop, 1 the AVX2 pass and 2 the AVX-512 one (each skipped where
// this CPU or build lacks it).
void BM_SensorNoise(benchmark::State& state) {
  const auto isa = static_cast<Isa>(state.range(0));
  if (isa > sim::SensorNoiseIsa()) {
    state.SkipWithError("this CPU (or build) lacks this noise pass");
    return;
  }
  const models::ProxyResolution proxy = models::StandardProxyResolutions()[0];
  std::vector<float> pixels(
      static_cast<size_t>(proxy.raster_w()) * proxy.raster_h(), 0.5f);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::AddSensorNoise(isa, seed++, pixels.data(), pixels.size()));
    benchmark::DoNotOptimize(pixels.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SensorNoise)->Arg(0)->Arg(1)->Arg(2);

// One frame's proxy forward pass, as Pipeline::Run scores each frame:
// activations and padded conv input planes (whose fills apply the staging
// and the ReLUs) all in the thread's scratch arena. The argument indexes
// StandardProxyResolutions(): 0 is the 104x64 raster perfbench extracts
// at, 4 the smallest (40x24).
void BM_ProxyInference(benchmark::State& state) {
  models::ProxyModel proxy(
      models::StandardProxyResolutions()[static_cast<size_t>(state.range(0))],
      1);
  sim::Rasterizer raster(&BenchClip());
  const video::Image frame = raster.Render(
      0, proxy.resolution().raster_w(), proxy.resolution().raster_h());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proxy.Score(frame));
  }
}
BENCHMARK(BM_ProxyInference)->Arg(0)->Arg(4);

// Conv inference at a detector-typical window shape: the direct kernel
// (ConvDirect, the variant picked for this CPU) versus the naive reference
// loops.
nn::Conv2d& DetectorShapeConv() {
  static Rng rng(3);
  static nn::Conv2d conv(16, 32, 3, 1, &rng);
  return conv;
}

nn::Tensor DetectorShapeInput() {
  Rng rng(4);
  nn::Tensor t({16, 64, 64});
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return t;
}

void BM_ConvNaive(benchmark::State& state) {
  nn::Conv2d& conv = DetectorShapeConv();
  const nn::Tensor input = DetectorShapeInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.InferReference(input));
  }
}
BENCHMARK(BM_ConvNaive);

void BM_ConvDirect(benchmark::State& state) {
  nn::Conv2d& conv = DetectorShapeConv();
  const nn::Tensor input = DetectorShapeInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Infer(input));
  }
}
BENCHMARK(BM_ConvDirect);

void BM_CellGrouping(benchmark::State& state) {
  Rng rng(5);
  core::CellGrid grid;
  grid.grid_w = 13;
  grid.grid_h = 8;
  grid.positive.assign(13 * 8, 0);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    grid.positive[rng.UniformInt(uint64_t{13 * 8})] = 1;
  }
  const models::DetectorArch arch = models::StandardDetectorArchs()[0];
  const std::vector<core::WindowSize> sizes = {
      {160, 90}, {320, 180}, {1280, 720}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GroupCells(grid, sizes, arch, 1280, 720));
  }
}
BENCHMARK(BM_CellGrouping)->Arg(4)->Arg(16)->Arg(64);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(7);
  const int n = static_cast<int>(state.range(0));
  track::CostMatrix cost(n, n, 0.0);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) cost(r, c) = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(track::SolveAssignment(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(64);

void BM_SortTrackerFrame(benchmark::State& state) {
  Rng rng(9);
  const int n = static_cast<int>(state.range(0));
  track::SortTracker tracker;
  int frame = 0;
  for (auto _ : state) {
    track::FrameDetections dets;
    for (int i = 0; i < n; ++i) {
      track::Detection d;
      d.frame = frame;
      d.box = geom::BBox(rng.Uniform(0, 1280), rng.Uniform(0, 720), 40, 28);
      dets.push_back(d);
    }
    tracker.ProcessFrame(frame++, dets);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SortTrackerFrame)->Arg(5)->Arg(20);

// A tracker net trained briefly on constant-velocity tracks at gaps 1-4 in
// a 1280x720, 10 fps frame, so that it matches linear motion.
const models::TrackerNet& BenchTrackerNet() {
  static const models::TrackerNet* net = [] {
    auto* n = new models::TrackerNet(5);
    Rng rng(21);
    const double fw = 1280, fh = 720, fps = 10;
    auto det = [](int frame, double cx, double cy) {
      track::Detection d;
      d.frame = frame;
      d.box = geom::BBox(cx, cy, 40, 28);
      return d;
    };
    for (int step = 0; step < 300; ++step) {
      const int gap = 1 << rng.UniformInt(uint64_t{3});
      const double vx = rng.Uniform(-4, 4), vy = rng.Uniform(-3, 3);
      double cx = rng.Uniform(100, 1180), cy = rng.Uniform(80, 640);
      models::TrackerNet::Example ex;
      track::Detection last;
      for (int i = 0; i < 3; ++i) {
        last = det(i * gap, cx, cy);
        ex.prefix_features.push_back(models::TrackerNet::DetFeature(
            last, gap, fps, fw, fh, 0.5, 0.1));
        cx += vx * gap;
        cy += vy * gap;
      }
      ex.positive_index = 0;
      for (const track::Detection& c :
           {det(3 * gap, cx, cy),
            det(3 * gap, rng.Uniform(20, 1260), rng.Uniform(20, 700))}) {
        ex.candidate_features.push_back(
            models::TrackerNet::DetFeature(c, gap, fps, fw, fh, 0.5, 0.1));
        ex.candidate_pair_features.push_back(
            models::TrackerNet::PairFeature(last, last, c, fps, fw, fh));
      }
      n->TrainStep(ex);
    }
    return n;
  }();
  return *net;
}

// Recurrent tracker frames: n objects moving linearly (wrapping at the
// frame edges), so tracks persist and each frame scores about n x n gated
// pairs. Every 300 frames the clip ends with Finish, as in the pipeline.
void BM_RecurrentTrackerFrame(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double fw = 1280, fh = 720;
  Rng rng(9);
  struct Object {
    double x, y, vx, vy;
  };
  std::vector<Object> objects;
  for (int i = 0; i < n; ++i) {
    objects.push_back({rng.Uniform(0, fw), rng.Uniform(0, fh),
                       rng.Uniform(-4, 4), rng.Uniform(-3, 3)});
  }
  auto wrap = [](double v, double size) {
    const double w = std::fmod(v, size);
    return w < 0 ? w + size : w;
  };
  track::RecurrentTracker tracker(&BenchTrackerNet(), {});
  const std::vector<std::pair<double, double>> appearance(
      static_cast<size_t>(n), {0.5, 0.1});
  constexpr int kClipFrames = 300;
  int frame = 0;
  for (auto _ : state) {
    track::FrameDetections dets;
    for (const Object& o : objects) {
      track::Detection d;
      d.frame = frame;
      d.box = geom::BBox(wrap(o.x + o.vx * frame, fw),
                         wrap(o.y + o.vy * frame, fh), 40, 28);
      dets.push_back(d);
    }
    tracker.ProcessFrameWithAppearance(frame, dets, appearance);
    if (++frame == kClipFrames) {
      benchmark::DoNotOptimize(tracker.Finish(2));
      frame = 0;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["pairs_per_frame"] =
      static_cast<double>(tracker.pair_scores_computed()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_RecurrentTrackerFrame)->Arg(5)->Arg(20);

void BM_TrackClustering(benchmark::State& state) {
  Rng rng(11);
  std::vector<track::Track> tracks;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    track::Track t;
    t.id = i;
    const double y = rng.Uniform(50, 700);
    for (int k = 0; k < 20; ++k) {
      track::Detection d;
      d.frame = k;
      d.box = geom::BBox(64.0 * k, y + rng.Gaussian(0, 4), 40, 28);
      t.detections.push_back(d);
    }
    tracks.push_back(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        track::ClusterTracks(tracks, track::DbscanOptions{}));
  }
}
BENCHMARK(BM_TrackClustering)->Arg(20)->Arg(100);

void BM_LimitQueryPostProcess(benchmark::State& state) {
  // Post-processing latency on extracted tracks: the "sub-second query"
  // claim. 60 tracks over one clip of 600 frames.
  Rng rng(13);
  std::vector<std::vector<track::Track>> clips(1);
  std::vector<track::Track>& tracks = clips[0];
  for (int i = 0; i < 60; ++i) {
    track::Track t;
    t.id = i;
    t.cls = track::ObjectClass::kCar;
    const int start = static_cast<int>(rng.UniformInt(uint64_t{400}));
    for (int k = 0; k < 20; ++k) {
      track::Detection d;
      d.frame = start + k * 8;
      d.box = geom::BBox(rng.Uniform(0, 1280), rng.Uniform(0, 720), 40, 28);
      t.detections.push_back(d);
    }
    tracks.push_back(std::move(t));
  }
  query::CountPredicate predicate(4);
  const std::vector<int> clip_frames = {600};
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::ExecuteLimitQueryMultiClip(
        clips, predicate, clip_frames, 25, 50));
  }
}
BENCHMARK(BM_LimitQueryPostProcess);

}  // namespace
}  // namespace otif

// Expanded BENCHMARK_MAIN so the shared observability init runs first.
int main(int argc, char** argv) {
  otif::obs::InitFromEnv();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
