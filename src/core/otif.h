#ifndef OTIF_CORE_OTIF_H_
#define OTIF_CORE_OTIF_H_

#include <memory>
#include <vector>

#include "core/best_config.h"
#include "core/pipeline.h"
#include "core/tuner.h"
#include "models/detector.h"
#include "models/proxy.h"
#include "sim/dataset.h"
#include "sim/raster.h"
#include "sim/world.h"
#include "util/rng.h"

namespace otif::core {

/// Scale of an OTIF run: how much data to sample and how long to train.
/// Defaults are sized for CPU-budget experiments; the paper's scale is 60
/// one-minute clips per split with longer training.
struct RunScale {
  int train_clips = 4;
  int valid_clips = 3;
  int test_clips = 4;
  int clip_seconds = 20;
  int proxy_train_steps = 350;
  int tracker_train_steps = 700;
  /// Train only this many proxy resolutions (from largest down); the full
  /// standard set has 5. Figure 7 uses all 5; the main tables use fewer to
  /// bound training cost.
  int proxy_resolutions = 3;
  /// Frames sampled for window-size selection.
  int window_sample_frames = 40;
};

/// Accuracy tolerance of the paper's selection rule for Tables 2-4: run the
/// fastest configuration within 5% of the best accuracy.
inline constexpr double kAccuracyTolerance = 0.05;

/// The OTIF system facade (paper Fig 1 workflow): sample train/validation
/// splits, select the best-accuracy configuration theta_best, compute S*
/// (tracks under theta_best on the training set), train segmentation proxy
/// models and the recurrent tracker, select window sizes, build the track
/// refiner, and run the joint parameter tuner. The tuned configurations can
/// then be executed over unseen clips.
class Otif {
 public:
  Otif(sim::DatasetSpec spec, RunScale scale);

  /// Simulates the split clips (deterministic per dataset seed).
  std::vector<sim::Clip> MakeClips(int split, int count) const;
  std::vector<sim::Clip> TrainClips() const;
  std::vector<sim::Clip> ValidClips() const;
  std::vector<sim::Clip> TestClips() const;

  /// Runs the full preparation workflow against an accuracy metric defined
  /// on the validation clips. Idempotent per instance.
  void Prepare(const AccuracyFn& validation_accuracy,
               const Tuner::Options& tuner_options);

  /// The tuner's speed-accuracy curve (valid after Prepare).
  const std::vector<TunerPoint>& curve() const { return curve_; }

  /// theta_best (valid after Prepare).
  const PipelineConfig& theta_best() const { return theta_best_; }

  /// Trained artifacts (valid after Prepare).
  const TrainedModels& trained() const { return trained_; }

  /// Accuracy of theta_best on the validation set.
  double theta_best_accuracy() const { return theta_best_accuracy_; }

  /// Picks the fastest curve point with accuracy within `tolerance` of the
  /// best accuracy achieved on the curve (the paper's rule for Tables 2-4
  /// passes kAccuracyTolerance).
  const TunerPoint& FastestWithinTolerance(double tolerance) const;

  /// Runs a tuned configuration over a clip set, returning per-clip tracks
  /// and the total simulated cost. A single pass reads no frame's proxy
  /// scores twice, so Execute scores every frame straight through and
  /// leaves trained().proxy_cache as it found it. Loops that execute
  /// several configurations over the same clips call EvaluateConfig with
  /// &trained().proxy_cache instead; the outputs are the same.
  EvalResult Execute(const PipelineConfig& config,
                     const std::vector<sim::Clip>& clips,
                     const AccuracyFn& accuracy_fn) const;

  /// Simulated seconds spent on model training and other pre-processing
  /// that does not scale with dataset size (Fig 6 pre-processing bars).
  double simulated_training_seconds() const {
    return simulated_training_seconds_;
  }

 private:
  /// Builds every proxy resolution and the tracker net, then trains them as
  /// concurrent tasks on the default pool.
  void TrainModels();
  /// Trains `proxy`, drawing training frames with `sampler_rng`. Reads only
  /// shared, read-only state besides the model itself.
  void TrainProxy(
      models::ProxyModel* proxy, Rng sampler_rng,
      const models::SimulatedDetector& detector,
      const std::vector<std::unique_ptr<sim::Rasterizer>>& rasters) const;
  /// Trains trained_.tracker_net on S*; returns false when S* has no track
  /// long enough to train on. Reads only S* and the train clips.
  bool TrainTrackerNet();
  void SelectWindows();
  void BuildRefiner();

  sim::DatasetSpec spec_;
  RunScale scale_;
  PipelineConfig theta_best_;
  double theta_best_accuracy_ = 0.0;
  /// Tracks computed by theta_best over the training set (S*), frames local
  /// to their clip; s_star_clip_ holds each track's train clip index, for
  /// same-frame negatives and appearance lookups during tracker training.
  std::vector<track::Track> s_star_;
  std::vector<int> s_star_clip_;
  std::vector<sim::Clip> train_clips_;
  TrainedModels trained_;
  std::vector<TunerPoint> curve_;
  double simulated_training_seconds_ = 0.0;
  bool prepared_ = false;
};

}  // namespace otif::core

#endif  // OTIF_CORE_OTIF_H_
