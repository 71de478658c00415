#include "sim/world.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace otif::sim {
namespace {

using geom::Point;

// An object in flight during simulation.
struct LiveObject {
  int64_t id;
  track::ObjectClass cls;
  int path_index;
  double arc_pos = 0.0;       // Arc-length position along the path (px).
  double base_speed = 0.0;    // Un-scaled speed, px/sec.
  double base_width = 0.0;    // Un-scaled box width, px.
  double aspect = 0.6;
  // Hard-braking episode: between brake_start_arc and until speed reaches
  // brake_target_factor * base_speed, decelerate at brake_decel px/s^2.
  bool will_brake = false;
  bool braking = false;
  bool brake_done = false;
  double brake_start_arc = 0.0;
  double brake_decel_px = 0.0;   // px/s^2
  double current_speed = 0.0;    // Current un-scaled speed.
  GtObject record;
};

track::ObjectClass SampleClass(const std::vector<ClassWeight>& mix,
                               otif::Rng* rng) {
  double total = 0.0;
  for (const ClassWeight& cw : mix) total += cw.weight;
  OTIF_CHECK_GT(total, 0.0);
  double u = rng->Uniform(0.0, total);
  for (const ClassWeight& cw : mix) {
    if (u < cw.weight) return cw.cls;
    u -= cw.weight;
  }
  return mix.back().cls;
}

// Size multiplier for larger vehicle classes.
double ClassSizeFactor(track::ObjectClass cls) {
  switch (cls) {
    case track::ObjectClass::kCar:
      return 1.0;
    case track::ObjectClass::kTruck:
      return 1.45;
    case track::ObjectClass::kBus:
      return 1.9;
    case track::ObjectClass::kPedestrian:
      return 1.0;
  }
  return 1.0;
}

// True when arrivals are enabled at time `t_sec` under the path's signal
// cycle.
bool SignalGreen(const SpawnPath& path, double t_sec) {
  if (path.cycle_sec <= 0.0) return true;
  double phase = std::fmod(t_sec - path.phase_sec, path.cycle_sec);
  if (phase < 0) phase += path.cycle_sec;
  return phase < path.green_fraction * path.cycle_sec;
}

}  // namespace

Clip::Clip(DatasetSpec spec, uint64_t clip_seed, int num_frames,
           std::vector<GtObject> objects,
           std::vector<geom::Point> camera_offsets)
    : spec_(std::move(spec)),
      clip_seed_(clip_seed),
      num_frames_(num_frames),
      objects_(std::move(objects)),
      camera_offsets_(std::move(camera_offsets)) {
  OTIF_CHECK_EQ(camera_offsets_.size(), static_cast<size_t>(num_frames_));
  frame_index_.resize(static_cast<size_t>(num_frames_));
  for (size_t oi = 0; oi < objects_.size(); ++oi) {
    const GtObject& obj = objects_[oi];
    for (size_t si = 0; si < obj.states.size(); ++si) {
      const int f = obj.states[si].frame;
      OTIF_CHECK_GE(f, 0);
      OTIF_CHECK_LT(f, num_frames_);
      frame_index_[static_cast<size_t>(f)].push_back(
          {static_cast<int>(oi), static_cast<int>(si)});
    }
  }
}

const geom::Point& Clip::CameraOffset(int frame) const {
  OTIF_CHECK_GE(frame, 0);
  OTIF_CHECK_LT(frame, num_frames_);
  return camera_offsets_[static_cast<size_t>(frame)];
}

const std::vector<VisibleObject>& Clip::VisibleAt(int frame) const {
  OTIF_CHECK_GE(frame, 0);
  OTIF_CHECK_LT(frame, num_frames_);
  return frame_index_[static_cast<size_t>(frame)];
}

track::FrameDetections Clip::GroundTruthDetections(int frame) const {
  track::FrameDetections dets;
  for (const VisibleObject& vis : VisibleAt(frame)) {
    const GtObject& obj = objects_[static_cast<size_t>(vis.object_index)];
    const ObjectFrameState& st =
        obj.states[static_cast<size_t>(vis.state_index)];
    track::Detection d;
    d.frame = frame;
    d.box = st.box;
    d.cls = obj.cls;
    d.confidence = 1.0;
    d.gt_id = obj.id;
    dets.push_back(d);
  }
  return dets;
}

uint64_t ClipSeed(const DatasetSpec& spec, int split, int clip_index) {
  uint64_t h = spec.seed * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<uint64_t>(split + 1) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<uint64_t>(clip_index + 1) * 0x94d049bb133111ebULL;
  return h;
}

Clip SimulateClip(const DatasetSpec& spec, uint64_t clip_seed,
                  int duration_frames) {
  OTIF_CHECK_GT(duration_frames, 0);
  OTIF_CHECK(!spec.paths.empty());
  Rng rng(clip_seed);
  Rng camera_rng = rng.Fork();
  const double dt = 1.0 / spec.fps;

  // Warm up long enough for the slowest object to cross the frame so that
  // the clip starts in steady state.
  double max_travel_sec = 0.0;
  std::vector<double> path_lengths;
  for (const SpawnPath& p : spec.paths) {
    const double len = geom::PolylineLength(p.waypoints);
    path_lengths.push_back(len);
    const double min_scale = std::min(p.scale_at_start, p.scale_at_end);
    const double slow_speed =
        std::max(5.0, (p.speed_mean_px - 2 * p.speed_std_px) *
                          std::max(0.2, min_scale));
    max_travel_sec = std::max(max_travel_sec, len / slow_speed);
  }
  const int warmup_frames =
      static_cast<int>(std::ceil(max_travel_sec * spec.fps)) + spec.fps;

  // Camera drift: bounded random walk, computed for visible frames only.
  std::vector<Point> camera_offsets(static_cast<size_t>(duration_frames));
  if (spec.moving_camera) {
    Point offset(0, 0);
    Point velocity(camera_rng.Uniform(-1, 1), camera_rng.Uniform(-1, 1));
    for (int f = 0; f < duration_frames; ++f) {
      // Smooth random acceleration with reflection at the drift bound.
      velocity.x += camera_rng.Gaussian(0.0, 0.3);
      velocity.y += camera_rng.Gaussian(0.0, 0.3);
      const double vmax = 1.0;
      velocity.x = std::clamp(velocity.x, -vmax, vmax);
      velocity.y = std::clamp(velocity.y, -vmax, vmax);
      offset.x += velocity.x * spec.camera_drift_px_per_sec * dt;
      offset.y += velocity.y * spec.camera_drift_px_per_sec * dt;
      if (std::abs(offset.x) > spec.camera_drift_max_px) velocity.x *= -1;
      if (std::abs(offset.y) > spec.camera_drift_max_px) velocity.y *= -1;
      camera_offsets[static_cast<size_t>(f)] = offset;
    }
  }

  std::vector<LiveObject> live;
  std::vector<GtObject> finished;
  int64_t next_id = 0;

  // Pre-draw Poisson arrivals per path per frame via Bernoulli thinning
  // (rate * dt is small).
  for (int f = -warmup_frames; f < duration_frames; ++f) {
    const double t_sec = f * dt;
    // Spawn new objects.
    for (size_t pi = 0; pi < spec.paths.size(); ++pi) {
      const SpawnPath& path = spec.paths[pi];
      if (!SignalGreen(path, t_sec)) continue;
      // Compensate the gating duty cycle so the average rate matches
      // rate_hz.
      const double duty =
          path.cycle_sec > 0 ? std::max(0.05, path.green_fraction) : 1.0;
      const double p_spawn = std::min(0.9, path.rate_hz * dt / duty);
      if (!rng.Bernoulli(p_spawn)) continue;
      LiveObject obj;
      obj.id = next_id++;
      obj.cls = SampleClass(path.class_mix, &rng);
      obj.path_index = static_cast<int>(pi);
      obj.arc_pos = 0.0;
      obj.base_speed = std::max(
          5.0, rng.Gaussian(path.speed_mean_px, path.speed_std_px));
      obj.current_speed = obj.base_speed;
      obj.base_width =
          std::max(6.0, rng.Gaussian(path.size_mean_px, path.size_std_px)) *
          ClassSizeFactor(obj.cls);
      obj.aspect = path.aspect;
      if (obj.cls != track::ObjectClass::kPedestrian &&
          rng.Bernoulli(spec.brake_prob)) {
        obj.will_brake = true;
        obj.brake_start_arc =
            rng.Uniform(0.25, 0.7) * path_lengths[pi];
        const double decel_mps2 =
            rng.Uniform(spec.brake_decel_min, spec.brake_decel_max);
        obj.brake_decel_px = decel_mps2 / spec.meters_per_pixel;
      }
      obj.record.id = obj.id;
      obj.record.cls = obj.cls;
      obj.record.path_index = obj.path_index;
      live.push_back(std::move(obj));
    }

    // Advance live objects and record visible states.
    const Point cam = (f >= 0 && spec.moving_camera)
                          ? camera_offsets[static_cast<size_t>(f)]
                          : Point(0, 0);
    for (size_t li = 0; li < live.size();) {
      LiveObject& obj = live[li];
      const SpawnPath& path = spec.paths[static_cast<size_t>(obj.path_index)];
      const double path_len = path_lengths[static_cast<size_t>(obj.path_index)];
      const double u =
          path_len > 0 ? std::clamp(obj.arc_pos / path_len, 0.0, 1.0) : 1.0;
      const double scale =
          path.scale_at_start + u * (path.scale_at_end - path.scale_at_start);

      // Braking dynamics (operates on the un-scaled speed).
      if (obj.will_brake && !obj.brake_done && !obj.braking &&
          obj.arc_pos >= obj.brake_start_arc) {
        obj.braking = true;
        obj.record.braked = true;
      }
      if (obj.braking) {
        obj.current_speed -= obj.brake_decel_px * dt;
        if (obj.current_speed <= obj.base_speed * 0.25) {
          obj.current_speed = obj.base_speed * 0.25;
          obj.braking = false;
          obj.brake_done = true;
        }
      } else if (obj.brake_done) {
        // Gentle re-acceleration back to cruise speed.
        obj.current_speed = std::min(
            obj.base_speed, obj.current_speed + 0.15 * obj.base_speed * dt);
      } else {
        // Mean-reverting (Ornstein-Uhlenbeck) speed noise around cruise:
        // stationary std ~6% of cruise speed regardless of framerate.
        const double theta = 0.8;
        const double sigma = 0.08 * obj.base_speed;
        obj.current_speed += theta * (obj.base_speed - obj.current_speed) * dt +
                             sigma * std::sqrt(dt) * rng.Gaussian();
        obj.current_speed = std::max(obj.current_speed, 0.3 * obj.base_speed);
      }

      // Record state if within the clip and visible.
      if (f >= 0) {
        const Point world_pos = geom::PointAlong(path.waypoints, u);
        const Point frame_pos = world_pos - cam;
        const double w = obj.base_width * std::max(0.15, scale);
        const double h = w * obj.aspect;
        const geom::BBox box(frame_pos.x, frame_pos.y, w, h);
        const bool visible =
            box.Right() > 0 && box.Left() < spec.width && box.Bottom() > 0 &&
            box.Top() < spec.height;
        if (visible) {
          ObjectFrameState st;
          st.frame = f;
          st.box = box;
          st.speed_px_per_sec = obj.current_speed * std::max(0.15, scale);
          obj.record.states.push_back(st);
        } else if (!obj.record.states.empty()) {
          // Left the frame after being visible: finish the object early so
          // re-entry (possible with a moving camera) starts a new identity.
          finished.push_back(std::move(obj.record));
          obj.record = GtObject{};
          obj.record.id = obj.id;
          obj.record.cls = obj.cls;
          obj.record.path_index = obj.path_index;
        }
      }

      // Advance along the path at the apparent (scaled) speed.
      obj.arc_pos += obj.current_speed * std::max(0.15, scale) * dt;
      if (obj.arc_pos >= path_len) {
        if (!obj.record.states.empty()) {
          finished.push_back(std::move(obj.record));
        }
        live[li] = std::move(live.back());
        live.pop_back();
      } else {
        ++li;
      }
    }
  }
  for (LiveObject& obj : live) {
    if (!obj.record.states.empty()) finished.push_back(std::move(obj.record));
  }

  // Re-enter objects with a moving camera may have produced multiple GtObject
  // records sharing an id; give each record a distinct id.
  int64_t reassign = 0;
  for (GtObject& obj : finished) obj.id = reassign++;

  return Clip(spec, clip_seed, duration_frames, std::move(finished),
              std::move(camera_offsets));
}

}  // namespace otif::sim
