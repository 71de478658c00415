#ifndef OTIF_CORE_WINDOW_SELECT_H_
#define OTIF_CORE_WINDOW_SELECT_H_

#include <vector>

#include "core/cell_grouping.h"
#include "models/detector.h"

namespace otif::core {

/// Selects the fixed set of detector window sizes W (paper Sec 3.3
/// "Determining Fixed Set of Window Sizes"). Assuming a perfect proxy
/// (positive cells = object locations), W* minimizes the expected detector
/// runtime sum_t est(R*(I_t; W)) over sampled frames. The greedy algorithm
/// initializes W with the full-frame size (the fallback must always be
/// available) and repeatedly adds the candidate size with the greatest
/// runtime decrease until |W| = k.
class WindowSizeSelector {
 public:
  struct Options {
    /// Target cardinality |W| (paper: k = 3, set by GPU memory).
    int k = 3;
  };

  /// `frame_w`/`frame_h` are the scaled detector-input dimensions; grids
  /// come from the proxy's positive cells on sampled frames (oracle cells
  /// during selection).
  WindowSizeSelector(double frame_w, double frame_h, Options options);

  /// Greedily selects W given sampled cell grids.
  std::vector<WindowSize> Select(const std::vector<CellGrid>& sample_grids,
                                 const models::DetectorArch& arch) const;

  /// Runtime objective: sum of est(R(grid; sizes)) over the samples.
  double TotalEstSeconds(const std::vector<CellGrid>& sample_grids,
                         const std::vector<WindowSize>& sizes,
                         const models::DetectorArch& arch) const;

 private:
  double frame_w_, frame_h_;
  Options options_;
};

}  // namespace otif::core

#endif  // OTIF_CORE_WINDOW_SELECT_H_
