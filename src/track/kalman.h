#ifndef OTIF_TRACK_KALMAN_H_
#define OTIF_TRACK_KALMAN_H_

#include "geom/geometry.h"

namespace otif::track {

/// Constant-velocity Kalman filter over a bounding box, as used by SORT.
/// State: (cx, cy, s, r, vcx, vcy, vs) where s is box area and r the aspect
/// ratio (held constant), with independent per-component variances (the
/// covariance is kept diagonal, which is the standard lightweight SORT
/// simplification).
class KalmanBoxFilter {
 public:
  /// Initializes the filter from the first observed box.
  explicit KalmanBoxFilter(const geom::BBox& box);

  /// Advances the state by `dt_frames` frames (prediction step).
  void Predict(double dt_frames);

  /// Incorporates a new observation (update step).
  void Update(const geom::BBox& box);

  /// Current state as a box.
  geom::BBox StateBox() const;

  /// Velocity of the center, pixels per frame.
  geom::Point Velocity() const { return {vcx_, vcy_}; }

 private:
  double cx_, cy_, s_, r_;
  double vcx_ = 0.0, vcy_ = 0.0, vs_ = 0.0;
  double last_dt_ = 1.0;  // Frames spanned by the most recent Predict().
  // Diagonal covariance entries for (cx, cy, s) and their velocities.
  double p_pos_, p_vel_;
};

}  // namespace otif::track

#endif  // OTIF_TRACK_KALMAN_H_
