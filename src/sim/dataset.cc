#include "sim/dataset.h"

#include "util/logging.h"

namespace otif::sim {
namespace {

using geom::Point;
using track::ObjectClass;

SpawnPath MakePath(std::string label, std::vector<Point> waypoints,
                   double rate_hz, double speed_mean, double size_mean) {
  SpawnPath p;
  p.label = std::move(label);
  p.waypoints = std::move(waypoints);
  p.rate_hz = rate_hz;
  p.speed_mean_px = speed_mean;
  p.speed_std_px = speed_mean * 0.15;
  p.size_mean_px = size_mean;
  p.size_std_px = size_mean * 0.12;
  return p;
}

void AddTruckBusMix(SpawnPath* p, double truck_w, double bus_w) {
  p->class_mix = {{ObjectClass::kCar, 1.0},
                  {ObjectClass::kTruck, truck_w},
                  {ObjectClass::kBus, bus_w}};
}

// Highway camera: the road runs diagonally across the frame, far edge at the
// top-left (small, slow apparent motion) to near edge at the bottom-right.
DatasetSpec MakeCaldot(const char* name, uint64_t seed, double rate_scale) {
  DatasetSpec spec;
  spec.name = name;
  spec.width = 720;
  spec.height = 480;
  spec.fps = 10;
  spec.meters_per_pixel = 0.12;
  spec.seed = seed;
  spec.brake_prob = 0.02;
  spec.background_complexity = 0.4;

  // Two lanes per direction. "near" lanes left-bound, offset vertically.
  auto lane = [&](std::string label, Point from, Point to, double rate) {
    SpawnPath p = MakePath(std::move(label), {from, to}, rate, 110.0, 34.0);
    // Perspective: the top-left end of the road is far away.
    const bool starts_far = from.y < to.y;
    p.scale_at_start = starts_far ? 0.45 : 1.25;
    p.scale_at_end = starts_far ? 1.25 : 0.45;
    AddTruckBusMix(&p, 0.25, 0.05);
    return p;
  };
  spec.paths.push_back(
      lane("southbound_l1", {60, 30}, {560, 470}, 0.22 * rate_scale));
  spec.paths.push_back(
      lane("southbound_l2", {100, 30}, {660, 470}, 0.20 * rate_scale));
  spec.paths.push_back(
      lane("northbound_l1", {460, 470}, {10, 30}, 0.22 * rate_scale));
  spec.paths.push_back(
      lane("northbound_l2", {360, 470}, {-20, 40}, 0.16 * rate_scale));
  return spec;
}

// Four-way junction with signal-gated arrivals. `arm` is the half-extent of
// the frame used by the approach roads.
void AddJunctionPaths(DatasetSpec* spec, double cx, double cy, double arm_x,
                      double arm_y, double rate, double speed, double size,
                      bool include_all_left_turns) {
  const double lane = size * 0.9;  // Lane offset from the road center line.
  const Point n_in(cx - lane, cy - arm_y), n_out(cx + lane, cy - arm_y);
  const Point s_in(cx + lane, cy + arm_y), s_out(cx - lane, cy + arm_y);
  const Point e_in(cx + arm_x, cy - lane), e_out(cx + arm_x, cy + lane);
  const Point w_in(cx - arm_x, cy + lane), w_out(cx - arm_x, cy - lane);
  const Point center(cx, cy);

  auto add = [&](std::string label, std::vector<Point> pts, double r,
                 double phase) {
    SpawnPath p = MakePath(std::move(label), std::move(pts), r, speed, size);
    p.cycle_sec = 24.0;
    p.green_fraction = 0.42;
    p.phase_sec = phase;
    AddTruckBusMix(&p, 0.12, 0.08);
    spec->paths.push_back(std::move(p));
  };

  // North-south phase at offset 0, east-west at half cycle.
  add("N->S", {n_in, {cx - lane, cy}, {cx - lane, cy + arm_y}}, rate, 0.0);
  add("S->N", {s_in, {cx + lane, cy}, {cx + lane, cy - arm_y}}, rate, 0.0);
  add("E->W", {e_in, {cx, cy - lane}, {cx - arm_x, cy - lane}}, rate, 12.0);
  add("W->E", {w_in, {cx, cy + lane}, {cx + arm_x, cy + lane}}, rate, 12.0);
  // Right turns (tight).
  add("N->W", {n_in, {cx - lane, cy - lane}, w_out}, rate * 0.5, 0.0);
  add("S->E", {s_in, {cx + lane, cy + lane}, e_out}, rate * 0.5, 0.0);
  add("E->N", {e_in, {cx + lane, cy - lane}, n_out}, rate * 0.5, 12.0);
  add("W->S", {w_in, {cx - lane, cy + lane}, s_out}, rate * 0.5, 12.0);
  // Left turns (wide, through the junction center).
  add("N->E", {n_in, center, e_out}, rate * 0.35, 0.0);
  if (include_all_left_turns) {
    add("S->W", {s_in, center, w_out}, rate * 0.35, 0.0);
  }
}

DatasetSpec MakeTokyo() {
  DatasetSpec spec;
  spec.name = "tokyo";
  spec.width = 1280;
  spec.height = 720;
  spec.fps = 10;
  spec.meters_per_pixel = 0.05;
  spec.seed = 3;
  spec.brake_prob = 0.05;
  spec.background_complexity = 0.7;
  // Busy city junction filling the frame: 10 turning movements (paper
  // Sec 4.1 identifies 10 unique directions in Tokyo).
  AddJunctionPaths(&spec, 640, 360, 660, 380, 0.30, 120.0, 46.0,
                   /*include_all_left_turns=*/true);
  return spec;
}

DatasetSpec MakeWarsaw() {
  DatasetSpec spec;
  spec.name = "warsaw";
  spec.width = 1280;
  spec.height = 720;
  spec.fps = 10;
  spec.meters_per_pixel = 0.05;
  spec.seed = 5;
  spec.brake_prob = 0.05;
  spec.background_complexity = 0.6;
  // Busy junction concentrated in the central band of the frame: large
  // margins stay empty, which is what makes the segmentation proxy model
  // give Warsaw its 1.5x ablation speedup (Table 4).
  AddJunctionPaths(&spec, 640, 390, 360, 210, 0.38, 110.0, 42.0,
                   /*include_all_left_turns=*/false);
  return spec;
}

DatasetSpec MakeUav() {
  DatasetSpec spec;
  spec.name = "uav";
  spec.width = 1280;
  spec.height = 720;
  spec.fps = 5;
  spec.meters_per_pixel = 0.08;
  spec.seed = 4;
  spec.moving_camera = true;
  spec.camera_drift_px_per_sec = 30.0;
  spec.camera_drift_max_px = 140.0;
  spec.brake_prob = 0.02;
  spec.background_complexity = 0.9;
  // Aerial view of two crossing roads; small objects, various directions.
  auto add = [&](std::string label, std::vector<Point> pts, double rate) {
    SpawnPath p = MakePath(std::move(label), std::move(pts), rate, 90.0, 26.0);
    AddTruckBusMix(&p, 0.2, 0.05);
    spec.paths.push_back(std::move(p));
  };
  add("west_road_down", {{380, -60}, {420, 780}}, 0.22);
  add("west_road_up", {{470, 780}, {430, -60}}, 0.22);
  add("cross_road_right", {{-60, 420}, {1340, 470}}, 0.18);
  add("cross_road_left", {{1340, 530}, {-60, 480}}, 0.18);
  add("diagonal", {{-60, 700}, {1340, 80}}, 0.10);
  return spec;
}

DatasetSpec MakeAmsterdam() {
  DatasetSpec spec;
  spec.name = "amsterdam";
  spec.width = 1280;
  spec.height = 720;
  spec.fps = 30;
  spec.meters_per_pixel = 0.05;
  spec.seed = 6;
  spec.brake_prob = 0.01;
  spec.background_complexity = 0.5;
  // Riverside plaza: cars pass occasionally on a street near the top of the
  // frame; pedestrians wander the plaza. Many frames contain zero cars,
  // which is what gives NoScope a usable tradeoff here (Sec 4.1 results).
  SpawnPath street_r =
      MakePath("street_east", {{-40, 150}, {1320, 130}}, 0.060, 140.0, 44.0);
  street_r.scale_at_start = 0.9;
  street_r.scale_at_end = 0.9;
  SpawnPath street_l =
      MakePath("street_west", {{1320, 180}, {-40, 200}}, 0.055, 140.0, 44.0);
  spec.paths.push_back(street_r);
  spec.paths.push_back(street_l);
  auto walk = [&](std::string label, std::vector<Point> pts, double rate) {
    SpawnPath p = MakePath(std::move(label), std::move(pts), rate, 35.0, 18.0);
    p.aspect = 2.2;  // Pedestrians are tall.
    p.class_mix = {{ObjectClass::kPedestrian, 1.0}};
    spec.paths.push_back(std::move(p));
  };
  walk("plaza_walk_1", {{200, 700}, {500, 420}, {900, 500}}, 0.25);
  walk("plaza_walk_2", {{1100, 680}, {700, 450}, {350, 520}}, 0.25);
  return spec;
}

DatasetSpec MakeJackson() {
  DatasetSpec spec;
  spec.name = "jackson";
  spec.width = 1280;
  spec.height = 720;
  spec.fps = 30;
  spec.meters_per_pixel = 0.06;
  spec.seed = 7;
  spec.brake_prob = 0.03;
  spec.background_complexity = 0.5;
  // Small-town junction: moderate traffic with gaps between cars.
  AddJunctionPaths(&spec, 640, 400, 660, 340, 0.065, 100.0, 48.0,
                   /*include_all_left_turns=*/false);
  // Pedestrians on the sidewalk.
  SpawnPath walk =
      MakePath("sidewalk", {{-30, 640}, {1310, 620}}, 0.10, 30.0, 16.0);
  walk.aspect = 2.2;
  walk.class_mix = {{ObjectClass::kPedestrian, 1.0}};
  spec.paths.push_back(walk);
  return spec;
}

DatasetSpec MakeSynthetic() {
  DatasetSpec spec;
  spec.name = "synthetic";
  spec.width = 320;
  spec.height = 240;
  spec.fps = 10;
  spec.meters_per_pixel = 0.2;
  spec.seed = 8;
  spec.brake_prob = 0.05;
  spec.background_complexity = 0.4;
  spec.paths.push_back(
      MakePath("left_right", {{-20, 80}, {340, 90}}, 0.25, 60.0, 28.0));
  spec.paths.push_back(
      MakePath("top_bottom", {{160, -20}, {170, 260}}, 0.20, 55.0, 26.0));
  return spec;
}

}  // namespace

std::vector<DatasetId> AllPaperDatasets() {
  return {DatasetId::kCaldot1, DatasetId::kCaldot2, DatasetId::kTokyo,
          DatasetId::kUav,     DatasetId::kWarsaw,  DatasetId::kAmsterdam,
          DatasetId::kJackson};
}

DatasetSpec MakeDataset(DatasetId id) {
  switch (id) {
    case DatasetId::kCaldot1:
      return MakeCaldot("caldot1", 1, 1.0);
    case DatasetId::kCaldot2:
      return MakeCaldot("caldot2", 2, 0.55);
    case DatasetId::kTokyo:
      return MakeTokyo();
    case DatasetId::kUav:
      return MakeUav();
    case DatasetId::kWarsaw:
      return MakeWarsaw();
    case DatasetId::kAmsterdam:
      return MakeAmsterdam();
    case DatasetId::kJackson:
      return MakeJackson();
    case DatasetId::kSynthetic:
      return MakeSynthetic();
  }
  OTIF_CHECK(false) << "unknown dataset id";
  return {};
}

}  // namespace otif::sim
