#include "core/tuner.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "track/metrics.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace otif::core {

Tuner::Tuner(const std::vector<sim::Clip>* validation,
             const TrainedModels* trained, AccuracyFn accuracy_fn,
             Options options)
    : validation_(validation),
      trained_(trained),
      accuracy_fn_(std::move(accuracy_fn)),
      options_(options) {
  OTIF_CHECK(validation != nullptr);
  OTIF_CHECK(!validation->empty());
  OTIF_CHECK(trained != nullptr);
  OTIF_CHECK_GT(options_.coarseness, 0.0);
  OTIF_CHECK_LT(options_.coarseness, 1.0);
  if (options_.enable_proxy) {
    OTIF_CHECK(!trained_->proxies.empty());
    OTIF_CHECK(!trained_->window_sizes.empty());
  }
}

void Tuner::CacheDetectionModule(const PipelineConfig& theta_best) {
  OTIF_SPAN("tuner/cache_detection");
  // For every (architecture, resolution): runtime is analytic; accuracy is
  // measured on the validation set with other parameters from theta_best
  // (Sec 3.5.1).
  const sim::DatasetSpec& spec = (*validation_)[0].spec();
  std::vector<DetectionProfile> profiles;
  for (const models::DetectorArch& arch : models::StandardDetectorArchs()) {
    for (double scale : StandardDetectorScales()) {
      DetectionProfile profile;
      profile.arch = arch.name;
      profile.scale = scale;
      profile.per_frame_sec = models::DetectorWindowSeconds(
          arch, spec.width * scale, spec.height * scale);
      profiles.push_back(std::move(profile));
    }
  }
  // The grid points are independent measurements; evaluate them across the
  // pool and fill accuracies back in by index.
  const std::vector<double> accuracies = ParallelMap(
      ThreadPool::Default(), static_cast<int64_t>(profiles.size()),
      [&](int64_t i) {
        PipelineConfig config = theta_best;
        config.detector_arch = profiles[static_cast<size_t>(i)].arch;
        config.detector_scale = profiles[static_cast<size_t>(i)].scale;
        config.use_proxy = false;
        config.tracker = TrackerKind::kSort;
        config.refine = false;
        return EvaluateConfig(config, trained_, *validation_, accuracy_fn_)
            .accuracy;
      });
  for (size_t i = 0; i < profiles.size(); ++i) {
    profiles[i].accuracy = accuracies[i];
    ++evaluations_;
    detection_profiles_.push_back(std::move(profiles[i]));
  }
}

void Tuner::CacheProxyModule(const PipelineConfig& theta_best) {
  OTIF_SPAN("tuner/cache_proxy");
  // For every (resolution, threshold): score validation frames (cached in
  // TrainedModels), group cells into windows, and record the windowed
  // detector cost relative to a full-frame pass plus the recall against
  // theta_best detections (Sec 3.5.2).
  const sim::DatasetSpec& spec = (*validation_)[0].spec();
  const models::DetectorArch arch = models::ArchByName(
      models::StandardDetectorArchs(), theta_best.detector_arch);
  const double full_cost = models::DetectorWindowSeconds(
      arch, spec.width, spec.height);
  const models::CostConstants& costs = models::DefaultCostConstants();
  models::SimulatedDetector detector(arch);

  // Sample frames across the validation clips (bounded for cache cost).
  // theta_best's detections on a frame (the best automatic labels) are the
  // recall reference for every (resolution, threshold), so take them once.
  const int stride = std::max(theta_best.sampling_gap, 8);
  struct SampledFrame {
    size_t clip;
    int frame;
    track::FrameDetections labels;
  };
  std::vector<SampledFrame> sampled;
  std::deque<sim::Rasterizer> rasters;  // One per clip, for every resolution.
  for (size_t c = 0; c < validation_->size(); ++c) {
    const sim::Clip& clip = (*validation_)[c];
    rasters.emplace_back(&clip);
    for (int f = 0; f < clip.num_frames(); f += stride) {
      sampled.push_back(
          {c, f,
           models::FilterByConfidence(
               detector.Detect(clip, f, theta_best.detector_scale),
               theta_best.detector_confidence)});
    }
  }

  std::vector<nn::Tensor> scores(sampled.size());
  for (size_t res = 0; res < trained_->proxies.size(); ++res) {
    models::ProxyModel* proxy = trained_->proxies[res].get();
    // Score the sampled frames with the pipeline's cache protocol: look up,
    // and on a miss score the frame and insert it.
    for (size_t i = 0; i < sampled.size(); ++i) {
      const SampledFrame& s = sampled[i];
      const ProxyScoreCache::Key key((*validation_)[s.clip].clip_seed(),
                                     s.frame, static_cast<int>(res));
      if (trained_->proxy_cache.Lookup(key, &scores[i])) continue;
      scores[i] = trained_->proxy_cache.Insert(
          key, proxy->Score(rasters[s.clip].Render(
                   s.frame, proxy->resolution().raster_w(),
                   proxy->resolution().raster_h())));
    }
    // Thresholds only re-read the shared scores; profile them in parallel
    // and append in threshold order (tie-breaking below scans in order).
    const std::vector<double> thresholds = StandardProxyThresholds();
    std::vector<ProxyProfile> profiles = ParallelMap(
        ThreadPool::Default(), static_cast<int64_t>(thresholds.size()),
        [&](int64_t ti) {
          const double threshold = thresholds[static_cast<size_t>(ti)];
          ProxyProfile profile;
          profile.resolution_index = static_cast<int>(res);
          profile.threshold = threshold;
          profile.proxy_sec_per_frame =
              costs.proxy_sec_per_frame +
              costs.proxy_sec_per_pixel * proxy->resolution().world_pixels();
          double cost_sum = 0.0;
          double recall_sum = 0.0;
          for (size_t i = 0; i < sampled.size(); ++i) {
            const CellGrid grid = CellGrid::FromScores(scores[i], threshold);
            GroupingResult grouping;
            std::vector<geom::BBox> rects;
            if (grid.CountPositive() > 0) {
              grouping = GroupCells(grid, trained_->window_sizes, arch,
                                    spec.width, spec.height);
              rects = WindowsToNativeRects(grouping, spec.width, spec.height,
                                           grid.grid_w, grid.grid_h, 1.0);
            }
            cost_sum += grouping.est_seconds / full_cost;
            recall_sum += track::DetectionCoverage(sampled[i].labels, rects);
          }
          if (!sampled.empty()) {
            const double n = static_cast<double>(sampled.size());
            profile.relative_detector_cost = cost_sum / n;
            profile.recall = recall_sum / n;
          }
          return profile;
        });
    for (ProxyProfile& profile : profiles) {
      proxy_profiles_.push_back(std::move(profile));
    }
  }
}

double Tuner::EstimatedPerFrameCost(const PipelineConfig& config) const {
  double det_cost = 0.0;
  for (const DetectionProfile& p : detection_profiles_) {
    if (p.arch == config.detector_arch &&
        std::abs(p.scale - config.detector_scale) < 1e-9) {
      det_cost = p.per_frame_sec;
      break;
    }
  }
  if (det_cost == 0.0) {
    const models::DetectorArch arch = models::ArchByName(
        models::StandardDetectorArchs(), config.detector_arch);
    const sim::DatasetSpec& spec = (*validation_)[0].spec();
    det_cost = models::DetectorWindowSeconds(
        arch, spec.width * config.detector_scale,
        spec.height * config.detector_scale);
  }
  if (!config.use_proxy) return det_cost;
  for (const ProxyProfile& p : proxy_profiles_) {
    if (p.resolution_index == config.proxy_resolution_index &&
        std::abs(p.threshold - config.proxy_threshold) < 1e-9) {
      return p.proxy_sec_per_frame + p.relative_detector_cost * det_cost;
    }
  }
  return det_cost;
}

bool Tuner::ProposeDetectionUpdate(const PipelineConfig& current,
                                   PipelineConfig* out) const {
  // Highest cached accuracy among (arch, scale) at least C faster than the
  // current detection choice.
  double current_det = 0.0;
  for (const DetectionProfile& p : detection_profiles_) {
    if (p.arch == current.detector_arch &&
        std::abs(p.scale - current.detector_scale) < 1e-9) {
      current_det = p.per_frame_sec;
    }
  }
  if (current_det == 0.0) return false;
  const double budget = (1.0 - options_.coarseness) * current_det;
  const DetectionProfile* best = nullptr;
  for (const DetectionProfile& p : detection_profiles_) {
    if (p.per_frame_sec > budget) continue;
    if (best == nullptr || p.accuracy > best->accuracy) best = &p;
  }
  if (best == nullptr) return false;
  *out = current;
  out->detector_arch = best->arch;
  out->detector_scale = best->scale;
  return true;
}

bool Tuner::ProposeProxyUpdate(const PipelineConfig& current,
                               PipelineConfig* out) const {
  if (!options_.enable_proxy || proxy_profiles_.empty()) return false;
  // Current per-frame (proxy + detector) cost; pick the (resolution,
  // threshold) with highest recall whose estimated cost is at least C
  // lower (Sec 3.5.2).
  const double current_cost = EstimatedPerFrameCost(current);
  const double budget = (1.0 - options_.coarseness) * current_cost;
  double det_cost = 0.0;
  {
    PipelineConfig plain = current;
    plain.use_proxy = false;
    det_cost = EstimatedPerFrameCost(plain);
  }
  const ProxyProfile* best = nullptr;
  for (const ProxyProfile& p : proxy_profiles_) {
    const double cost =
        p.proxy_sec_per_frame + p.relative_detector_cost * det_cost;
    if (cost > budget) continue;
    if (best == nullptr || p.recall > best->recall) best = &p;
  }
  if (best == nullptr) return false;
  *out = current;
  out->use_proxy = true;
  out->proxy_resolution_index = best->resolution_index;
  out->proxy_threshold = best->threshold;
  return true;
}

bool Tuner::ProposeGapUpdate(const PipelineConfig& current,
                             PipelineConfig* out) const {
  if (!options_.enable_gap_tuning) return false;
  // g / (1 - C) rounded up to the next power of two doubles the gap at
  // C = 30% (Sec 3.5.3).
  int next = current.sampling_gap;
  const double target = current.sampling_gap / (1.0 - options_.coarseness);
  while (next < target) next *= 2;
  if (next == current.sampling_gap) next *= 2;
  if (next > kMaxSamplingGap) return false;
  *out = current;
  out->sampling_gap = next;
  return true;
}

std::vector<TunerPoint> Tuner::Run(const PipelineConfig& theta_best) {
  detection_profiles_.clear();
  proxy_profiles_.clear();
  evaluations_ = 0;

  // Caching phase.
  CacheDetectionModule(theta_best);
  if (options_.enable_proxy) CacheProxyModule(theta_best);

  // theta_1: theta_best's detection parameters with the configured tracker
  // (the recurrent model and refiner are trained by now).
  PipelineConfig current = theta_best;
  current.tracker = options_.tracker;
  current.use_proxy = false;
  current.refine = options_.enable_refine &&
                   trained_->refiner != nullptr &&
                   !(*validation_)[0].spec().moving_camera;
  if (!options_.enable_gap_tuning) current.sampling_gap = theta_best.sampling_gap;

  std::vector<TunerPoint> curve;
  {
    EvalResult r = EvaluateConfig(current, trained_, *validation_,
                                  accuracy_fn_);
    ++evaluations_;
    curve.push_back({current, r.seconds, r.accuracy, "init"});
  }

  telemetry::Counter* const rounds =
      telemetry::MetricsRegistry::Global().GetCounter("tuner.rounds");
  telemetry::Counter* const eval_counter =
      telemetry::MetricsRegistry::Global().GetCounter("tuner.evaluations");
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    OTIF_SPAN("tuner/round");
    std::vector<PipelineConfig> candidates;
    std::vector<const char*> modules;  // Proposing module, by candidate.
    PipelineConfig candidate;
    if (ProposeDetectionUpdate(current, &candidate)) {
      candidates.push_back(candidate);
      modules.push_back("detection");
    }
    if (ProposeProxyUpdate(current, &candidate)) {
      candidates.push_back(candidate);
      modules.push_back("proxy");
    }
    if (ProposeGapUpdate(current, &candidate)) {
      candidates.push_back(candidate);
      modules.push_back("gap");
    }
    if (candidates.empty()) break;
    if (telemetry::Enabled()) rounds->Add(1);

    // Evaluate the round's candidates concurrently; selecting the winner
    // scans results in candidate order, so ties resolve exactly as the
    // serial loop did (first proposal wins). The per-candidate wall-clock
    // aggregates under tuner/evaluate (count = evaluations).
    const std::vector<EvalResult> results = ParallelMap(
        ThreadPool::Default(), static_cast<int64_t>(candidates.size()),
        [&](int64_t i) {
          telemetry::ScopedSpan span(telemetry::GetSpan("tuner/evaluate"));
          return EvaluateConfig(candidates[static_cast<size_t>(i)], trained_,
                                *validation_, accuracy_fn_);
        });
    double best_accuracy = -1.0;
    TunerPoint best_point;
    for (size_t i = 0; i < candidates.size(); ++i) {
      ++evaluations_;
      if (telemetry::Enabled()) eval_counter->Add(1);
      if (results[i].accuracy > best_accuracy) {
        best_accuracy = results[i].accuracy;
        best_point = {candidates[i], results[i].seconds, results[i].accuracy,
                      modules[i]};
      }
    }
    OTIF_LOG(kDebug) << "tuner round " << iter << ": chose "
                     << best_point.chosen_module << " update "
                     << best_point.config.ToString() << " (accuracy "
                     << best_point.val_accuracy << ")";
    if (telemetry::Enabled()) {
      telemetry::MetricsRegistry::Global()
          .GetCounter(std::string("tuner.chosen.") + best_point.chosen_module)
          ->Add(1);
    }
    curve.push_back(best_point);
    current = best_point.config;
  }
  return curve;
}

}  // namespace otif::core
