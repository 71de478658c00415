#include "core/otif.h"

#include <algorithm>
#include <map>

#include "core/window_select.h"
#include "models/detector.h"
#include "sim/raster.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_timeline.h"

namespace otif::core {

Otif::Otif(sim::DatasetSpec spec, RunScale scale)
    : spec_(std::move(spec)), scale_(scale) {
  OTIF_CHECK_GT(scale_.train_clips, 0);
  OTIF_CHECK_GT(scale_.valid_clips, 0);
  OTIF_CHECK_GT(scale_.clip_seconds, 0);
  OTIF_CHECK_GE(scale_.proxy_resolutions, 1);
  OTIF_CHECK_LE(static_cast<size_t>(scale_.proxy_resolutions),
                models::StandardProxyResolutions().size());
}

std::vector<sim::Clip> Otif::MakeClips(int split, int count) const {
  std::vector<sim::Clip> clips;
  clips.reserve(static_cast<size_t>(count));
  const int frames = scale_.clip_seconds * spec_.fps;
  for (int c = 0; c < count; ++c) {
    clips.push_back(
        sim::SimulateClip(spec_, sim::ClipSeed(spec_, split, c), frames));
  }
  return clips;
}

std::vector<sim::Clip> Otif::TrainClips() const {
  return MakeClips(0, scale_.train_clips);
}
std::vector<sim::Clip> Otif::ValidClips() const {
  return MakeClips(1, scale_.valid_clips);
}
std::vector<sim::Clip> Otif::TestClips() const {
  return MakeClips(2, scale_.test_clips);
}

void Otif::TrainProxy(
    models::ProxyModel* proxy, Rng sampler_rng,
    const models::SimulatedDetector& detector,
    const std::vector<std::unique_ptr<sim::Rasterizer>>& rasters) const {
  OTIF_SPAN("prepare/train_proxy");
  auto sampler = [&]() {
    for (int attempt = 0; attempt < 256; ++attempt) {
      const size_t ci = static_cast<size_t>(
          sampler_rng.UniformInt(static_cast<uint64_t>(train_clips_.size())));
      const sim::Clip& clip = train_clips_[ci];
      const int f = static_cast<int>(
          sampler_rng.UniformInt(static_cast<uint64_t>(clip.num_frames())));
      const track::FrameDetections dets = models::FilterByConfidence(
          detector.Detect(clip, f, theta_best_.detector_scale),
          theta_best_.detector_confidence);
      // Paper: sample frames where theta_best produced detections.
      if (dets.empty()) continue;
      models::ProxySample s;
      s.frame = rasters[ci]->Render(f, proxy->resolution().raster_w(),
                                    proxy->resolution().raster_h());
      s.labels = proxy->MakeLabels(dets, spec_.width, spec_.height);
      return s;
    }
    // Sparse dataset fallback: train on an empty frame.
    models::ProxySample s;
    const sim::Clip& clip = train_clips_[0];
    s.frame = rasters[0]->Render(0, proxy->resolution().raster_w(),
                                 proxy->resolution().raster_h());
    s.labels = proxy->MakeLabels(
        models::FilterByConfidence(
            detector.Detect(clip, 0, theta_best_.detector_scale),
            theta_best_.detector_confidence),
        spec_.width, spec_.height);
    return s;
  };
  models::TrainProxyModel(proxy, sampler, scale_.proxy_train_steps);
}

void Otif::TrainModels() {
  const int num_proxies = scale_.proxy_resolutions;
  // Fork every resolution's sampler stream up front, in r order, so each
  // model sees the stream a serial loop would give it.
  Rng rng(spec_.seed * 77 + 5);
  std::vector<Rng> sampler_rngs;
  for (int r = 0; r < num_proxies; ++r) sampler_rngs.push_back(rng.Fork());
  // Build every model here, on the calling thread, and only train them in
  // the tasks, so their parameters come from this thread's heap as in a
  // serial run. Building the tracker net inside its task put the weights
  // every worker reads during extraction in one pool worker's heap, and
  // made the later extraction 15-20% slower on the dense perfbench workload
  // (measured on a 4-core host; the exact cause was not isolated).
  const auto resolutions = models::StandardProxyResolutions();
  for (int r = 0; r < num_proxies; ++r) {
    trained_.proxies.push_back(std::make_unique<models::ProxyModel>(
        resolutions[static_cast<size_t>(r)], spec_.seed * 13 + r));
  }
  trained_.tracker_net =
      std::make_unique<models::TrackerNet>(spec_.seed * 31 + 7);
  // theta_best detections provide the proxy labels (Sec 3.3).
  const models::SimulatedDetector detector(models::ArchByName(
      models::StandardDetectorArchs(), theta_best_.detector_arch));
  std::vector<std::unique_ptr<sim::Rasterizer>> rasters;
  for (const sim::Clip& clip : train_clips_) {
    rasters.push_back(std::make_unique<sim::Rasterizer>(&clip));
  }

  // One task per proxy resolution (largest first, the longest task) plus
  // one for the tracker net. Each model trains on one thread and its caches
  // belong to it alone; Detect is const and Render is safe to call
  // concurrently, so the trained models are bit-identical at every pool
  // width.
  bool tracker_trained = false;
  ThreadPool::Default()->ParallelFor(num_proxies + 1, [&](int64_t task) {
    if (task == num_proxies) {
      tracker_trained = TrainTrackerNet();
      return;
    }
    const size_t r = static_cast<size_t>(task);
    TrainProxy(trained_.proxies[r].get(), sampler_rngs[r], detector, rasters);
  });
  // Simulated training cost: the paper reports <10 min for all proxies;
  // charge proportional to steps at a V100-class rate.
  simulated_training_seconds_ +=
      0.02 * scale_.proxy_train_steps * scale_.proxy_resolutions;
  if (tracker_trained) {
    simulated_training_seconds_ += 0.01 * scale_.tracker_train_steps;
  }
}

bool Otif::TrainTrackerNet() {
  OTIF_SPAN("prepare/train_tracker");
  Rng rng(spec_.seed * 131 + 11);

  // Appearance provider: low-res renders of training frames, cached.
  std::vector<std::unique_ptr<sim::Rasterizer>> rasters;
  for (const sim::Clip& clip : train_clips_) {
    rasters.push_back(std::make_unique<sim::Rasterizer>(&clip));
  }
  std::map<std::pair<int, int>, video::Image> render_cache;
  auto appearance = [&](size_t track_idx, const track::Detection& d) {
    const int ci = s_star_clip_[track_idx];
    const int local = d.frame - s_star_offset_[track_idx];
    auto it = render_cache.find({ci, local});
    if (it == render_cache.end()) {
      it = render_cache
               .emplace(std::make_pair(ci, local),
                        rasters[static_cast<size_t>(ci)]->Render(local, 40, 24))
               .first;
    }
    return models::TrackerNet::AppearanceStats(it->second, d.box, spec_.width,
                                               spec_.height);
  };

  // Index S* tracks; detections in the same (globally offset) frame of
  // other tracks act as matching negatives.
  std::vector<size_t> usable;
  for (size_t i = 0; i < s_star_.size(); ++i) {
    if (s_star_[i].detections.size() >= 4) usable.push_back(i);
  }
  if (usable.empty()) return false;
  // Frame -> detections of all tracks (for negatives).
  std::map<int, track::FrameDetections> by_frame;
  for (const track::Track& t : s_star_) {
    for (const track::Detection& d : t.detections) {
      by_frame[d.frame].push_back(d);
    }
  }

  const double fw = spec_.width, fh = spec_.height, fps = spec_.fps;
  for (int step = 0; step < scale_.tracker_train_steps; ++step) {
    const size_t track_idx = usable[static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(usable.size())))];
    const track::Track& t = s_star_[track_idx];
    // Sample a gap g ~ {1, 2, 4, ..., max_training_gap} (Sec 3.4).
    int gap = 1;
    {
      int levels = 1;
      while ((1 << levels) <= scale_.max_training_gap) ++levels;
      gap = 1 << rng.UniformInt(static_cast<uint64_t>(levels));
    }
    // Sub-sample detections >= gap frames apart.
    std::vector<const track::Detection*> sub;
    int last_frame = -1 << 20;
    for (const track::Detection& d : t.detections) {
      if (d.frame - last_frame >= gap) {
        sub.push_back(&d);
        last_frame = d.frame;
      }
    }
    if (sub.size() < 3) continue;
    // Random prefix split: prefix = sub[0..k), truth = sub[k].
    const size_t k = 2 + static_cast<size_t>(rng.UniformInt(
                             static_cast<uint64_t>(sub.size() - 2)));
    const size_t prefix_start = k > 6 ? k - 6 : 0;  // Bound BPTT length.

    models::TrackerNet::Example ex;
    int prev_frame = sub[prefix_start]->frame - gap;
    for (size_t i = prefix_start; i < k; ++i) {
      const auto [mean, stdev] = appearance(track_idx, *sub[i]);
      ex.prefix_features.push_back(models::TrackerNet::DetFeature(
          *sub[i], sub[i]->frame - prev_frame, fps, fw, fh, mean, stdev));
      prev_frame = sub[i]->frame;
    }
    const track::Detection& truth = *sub[k];
    const track::Detection& last = *sub[k - 1];
    const track::Detection& before_last = k >= 2 ? *sub[k - 2] : last;
    // Candidates: the truth plus other detections in the truth's frame.
    std::vector<const track::Detection*> candidates = {&truth};
    auto it = by_frame.find(truth.frame);
    if (it != by_frame.end()) {
      for (const track::Detection& d : it->second) {
        if (d.gt_id != truth.gt_id || d.box.cx != truth.box.cx) {
          if (candidates.size() < 6) candidates.push_back(&d);
        }
      }
    }
    ex.positive_index = 0;
    for (const track::Detection* c : candidates) {
      const auto [mean, stdev] = appearance(track_idx, *c);
      ex.candidate_features.push_back(models::TrackerNet::DetFeature(
          *c, truth.frame - last.frame, fps, fw, fh, mean, stdev));
      ex.candidate_pair_features.push_back(models::TrackerNet::PairFeature(
          before_last, last, *c, fps, fw, fh));
    }
    trained_.tracker_net->TrainStep(ex);
  }
  return true;
}

void Otif::SelectWindows() {
  OTIF_SPAN("prepare/select_windows");
  // Oracle cells from theta_best detections over sampled training frames
  // (the paper assumes a perfect proxy when selecting W). Use the largest
  // proxy resolution's grid geometry.
  OTIF_CHECK(!trained_.proxies.empty());
  const models::ProxyModel& proxy = *trained_.proxies[0];
  const models::DetectorArch arch = models::ArchByName(
      models::StandardDetectorArchs(), theta_best_.detector_arch);
  models::SimulatedDetector detector(arch);

  std::vector<CellGrid> grids;
  Rng rng(spec_.seed * 17 + 3);
  for (int s = 0; s < scale_.window_sample_frames; ++s) {
    const size_t ci = static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(train_clips_.size())));
    const sim::Clip& clip = train_clips_[ci];
    const int f = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(clip.num_frames())));
    const track::FrameDetections dets = models::FilterByConfidence(
        detector.Detect(clip, f, theta_best_.detector_scale),
        theta_best_.detector_confidence);
    const nn::Tensor labels = proxy.MakeLabels(dets, spec_.width, spec_.height);
    CellGrid grid;
    grid.grid_w = proxy.resolution().grid_w();
    grid.grid_h = proxy.resolution().grid_h();
    grid.positive.assign(static_cast<size_t>(grid.grid_w) * grid.grid_h, 0);
    for (int64_t i = 0; i < labels.size(); ++i) {
      grid.positive[static_cast<size_t>(i)] = labels[i] > 0.5f ? 1 : 0;
    }
    grids.push_back(std::move(grid));
  }
  WindowSizeSelector selector(spec_.width, spec_.height,
                              WindowSizeSelector::Options{});
  trained_.window_sizes = selector.Select(grids, arch);
  simulated_training_seconds_ += 3.0;  // Paper Fig 6: ~3 s for this step.
}

void Otif::BuildRefiner() {
  if (spec_.moving_camera) return;  // Refinement targets fixed cameras.
  track::DbscanOptions dbscan;
  dbscan.epsilon = 0.04 * std::max(spec_.width, spec_.height);
  const auto clusters = track::ClusterTracks(s_star_, dbscan);
  // Distances scale with the frame so small datasets do not blend paths.
  track::TrackRefiner::Options opts;
  opts.max_cluster_distance = 0.12 * std::max(spec_.width, spec_.height);
  opts.index_cell_px = 0.05 * std::max(spec_.width, spec_.height);
  trained_.refiner = std::make_unique<track::TrackRefiner>(clusters, opts);
}

void Otif::Prepare(const AccuracyFn& validation_accuracy,
                   const Tuner::Options& tuner_options) {
  OTIF_CHECK(!prepared_) << "Prepare() may only run once per instance";
  prepared_ = true;

  const std::vector<sim::Clip> validation = ValidClips();
  train_clips_ = TrainClips();

  // 1. Select theta_best on the validation set (SORT tracker; proxies and
  //    the recurrent model do not exist yet).
  {
    OTIF_SPAN("prepare/best_config");
    theta_best_ = SelectBestConfig(validation, validation_accuracy,
                                   &theta_best_accuracy_);
  }

  // 2. Compute S*: tracks under theta_best over the training set. Frames
  //    are offset per clip so S* detections carry globally unique frames
  //    (used by tracker training to find same-frame negatives).
  {
    OTIF_SPAN("prepare/sstar");
    Pipeline pipeline(theta_best_, nullptr);
    // Per-clip runs are independent; the offset bookkeeping below stays
    // serial in clip order so S* is identical to a serial pass.
    std::vector<PipelineResult> per_clip = ParallelMap(
        ThreadPool::Default(), static_cast<int64_t>(train_clips_.size()),
        [&](int64_t ci) {
          // Clip context: timeline attribution, and non-negative fault
          // decision tokens independent of thread interleaving.
          telemetry::timeline::ScopedContext ctx({.clip = ci});
          return pipeline.Run(train_clips_[static_cast<size_t>(ci)]);
        });
    int frame_offset = 0;
    for (size_t ci = 0; ci < train_clips_.size(); ++ci) {
      PipelineResult& r = per_clip[ci];
      for (track::Track& t : r.tracks) {
        for (track::Detection& d : t.detections) d.frame += frame_offset;
        t.id = static_cast<int64_t>(s_star_.size());
        s_star_.push_back(std::move(t));
        s_star_clip_.push_back(static_cast<int>(ci));
        s_star_offset_.push_back(frame_offset);
      }
      frame_offset += train_clips_[ci].num_frames() + 1024;
    }
  }

  // 3. Train models (concurrently) and build structures.
  TrainModels();
  SelectWindows();
  BuildRefiner();

  // 4. Joint parameter tuning. theta_best itself anchors the curve's
  //    slow/accurate end (the paper's Fig 5 shows methods sharing this
  //    naive top-right configuration).
  OTIF_SPAN("prepare/tune");
  Tuner tuner(&validation, &trained_, validation_accuracy, tuner_options);
  curve_ = tuner.Run(theta_best_);
  {
    EvalResult r = EvaluateConfig(theta_best_, &trained_, validation,
                                  validation_accuracy);
    curve_.insert(curve_.begin(), {theta_best_, r.seconds, r.accuracy});
  }
}

const TunerPoint& Otif::FastestWithinTolerance(double tolerance) const {
  OTIF_CHECK(!curve_.empty());
  double best_acc = 0.0;
  for (const TunerPoint& p : curve_) best_acc = std::max(best_acc, p.val_accuracy);
  const TunerPoint* fastest = &curve_.front();
  for (const TunerPoint& p : curve_) {
    if (p.val_accuracy >= best_acc - tolerance &&
        p.val_seconds < fastest->val_seconds) {
      fastest = &p;
    }
  }
  return *fastest;
}

EvalResult Otif::Execute(const PipelineConfig& config,
                         const std::vector<sim::Clip>& clips,
                         const AccuracyFn& accuracy_fn) const {
  return EvaluateConfig(config, &trained_, clips, accuracy_fn);
}

}  // namespace otif::core
