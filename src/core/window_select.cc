#include "core/window_select.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace otif::core {
namespace {

/// Candidate window side lengths are multiples of this many cells.
constexpr int kCandidateStepCells = 2;

}  // namespace

WindowSizeSelector::WindowSizeSelector(double frame_w, double frame_h,
                                       Options options)
    : frame_w_(frame_w), frame_h_(frame_h), options_(options) {
  OTIF_CHECK_GT(frame_w, 0);
  OTIF_CHECK_GT(frame_h, 0);
  OTIF_CHECK_GE(options_.k, 1);
}

double WindowSizeSelector::TotalEstSeconds(
    const std::vector<CellGrid>& sample_grids,
    const std::vector<WindowSize>& sizes,
    const models::DetectorArch& arch) const {
  double total = 0.0;
  for (const CellGrid& grid : sample_grids) {
    total += GroupCells(grid, sizes, arch, frame_w_, frame_h_).est_seconds;
  }
  return total;
}

std::vector<WindowSize> WindowSizeSelector::Select(
    const std::vector<CellGrid>& sample_grids,
    const models::DetectorArch& arch) const {
  OTIF_CHECK(!sample_grids.empty());
  const int grid_w = sample_grids[0].grid_w;
  const int grid_h = sample_grids[0].grid_h;
  const double cell_w = frame_w_ / grid_w;
  const double cell_h = frame_h_ / grid_h;

  // W starts with the full-frame size (always available as a fallback).
  const WindowSize full{static_cast<int>(frame_w_ + 0.5),
                        static_cast<int>(frame_h_ + 0.5)};
  std::vector<WindowSize> selected = {full};
  if (options_.k == 1) return selected;

  // Candidate sizes: rectangles of cells at kCandidateStepCells steps,
  // capped to the frame; deduplicated.
  std::vector<WindowSize> candidates;
  std::set<std::pair<int, int>> seen;
  for (int cw = kCandidateStepCells; cw <= grid_w; cw += kCandidateStepCells) {
    for (int ch = kCandidateStepCells; ch <= grid_h;
         ch += kCandidateStepCells) {
      WindowSize s{static_cast<int>(cw * cell_w + 0.5),
                   static_cast<int>(ch * cell_h + 0.5)};
      if (s.w >= full.w && s.h >= full.h) continue;
      if (seen.insert({s.w, s.h}).second) candidates.push_back(s);
    }
  }

  double current = TotalEstSeconds(sample_grids, selected, arch);
  while (static_cast<int>(selected.size()) < options_.k) {
    double best_total = current;
    int best_candidate = -1;
    for (size_t c = 0; c < candidates.size(); ++c) {
      std::vector<WindowSize> trial = selected;
      trial.push_back(candidates[c]);
      const double total = TotalEstSeconds(sample_grids, trial, arch);
      if (total < best_total - 1e-12) {
        best_total = total;
        best_candidate = static_cast<int>(c);
      }
    }
    if (best_candidate < 0) break;  // No candidate helps further.
    selected.push_back(candidates[static_cast<size_t>(best_candidate)]);
    candidates.erase(candidates.begin() + best_candidate);
    current = best_total;
  }
  return selected;
}

}  // namespace otif::core
