#include "track/kalman.h"

#include <algorithm>
#include <cmath>

namespace otif::track {
namespace {

constexpr double kProcessPosNoise = 1.0;
constexpr double kProcessVelNoise = 0.5;
constexpr double kMeasurementNoise = 4.0;

}  // namespace

KalmanBoxFilter::KalmanBoxFilter(const geom::BBox& box)
    : cx_(box.cx),
      cy_(box.cy),
      s_(std::max(1.0, box.Area())),
      r_(box.h > 0 ? box.w / box.h : 1.0),
      p_pos_(10.0),
      p_vel_(100.0) {}

void KalmanBoxFilter::Predict(double dt_frames) {
  cx_ += vcx_ * dt_frames;
  cy_ += vcy_ * dt_frames;
  s_ = std::max(1.0, s_ + vs_ * dt_frames);
  p_pos_ += dt_frames * (p_vel_ + kProcessPosNoise);
  p_vel_ += dt_frames * kProcessVelNoise;
  last_dt_ = std::max(1.0, dt_frames);
}

void KalmanBoxFilter::Update(const geom::BBox& box) {
  const double gain = p_pos_ / (p_pos_ + kMeasurementNoise);
  const double dx = box.cx - cx_;
  const double dy = box.cy - cy_;
  const double ds = std::max(1.0, box.Area()) - s_;
  cx_ += gain * dx;
  cy_ += gain * dy;
  s_ = std::max(1.0, s_ + gain * ds);
  if (box.h > 0) r_ = 0.8 * r_ + 0.2 * (box.w / box.h);
  // Velocity update: the innovation dx accumulated over last_dt_ predicted
  // frames, so the implied velocity error is dx / last_dt_.
  const double vel_gain = p_vel_ / (p_vel_ + kMeasurementNoise * 4);
  vcx_ += vel_gain * dx / last_dt_;
  vcy_ += vel_gain * dy / last_dt_;
  vs_ += vel_gain * ds / (2.0 * last_dt_);
  p_pos_ = std::max(1.0, (1.0 - gain) * p_pos_);
  p_vel_ = std::max(0.5, (1.0 - vel_gain) * p_vel_);
}

geom::BBox KalmanBoxFilter::StateBox() const {
  const double w = std::sqrt(std::max(1.0, s_ * r_));
  const double h = std::max(1.0, w / std::max(0.05, r_));
  return geom::BBox(cx_, cy_, w, h);
}

}  // namespace otif::track
