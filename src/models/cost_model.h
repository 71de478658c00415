#ifndef OTIF_MODELS_COST_MODEL_H_
#define OTIF_MODELS_COST_MODEL_H_

#include <array>
#include <cstdint>
#include <string>

namespace otif::models {

/// Pipeline stages tracked by the simulated clock (Figure 6 cost breakdown).
enum class CostCategory : int {
  kDecode = 0,
  kProxy = 1,
  kDetect = 2,
  kTrack = 3,
  kRefine = 4,
  kQuery = 5,
  kOther = 6,
};
inline constexpr int kNumCostCategories = 7;

/// Stable display name for a category ("decode", ...).
const char* CostCategoryName(CostCategory c);

/// Simulated execution clock. All pipeline stages charge simulated seconds
/// here instead of relying on wall-clock time; throughput constants are
/// calibrated to the hardware anchors reported in the paper (YOLOv3 at 100
/// fps on 960x540 frames on a V100, BlazeIt proxy at 64x64, decode roughly a
/// third of CPU time once inference is optimized).
class SimClock {
 public:
  SimClock() { categories_.fill(0.0); }

  /// Adds simulated seconds to a category.
  void Charge(CostCategory category, double seconds);

  /// Seconds accumulated in one category.
  double Seconds(CostCategory category) const;

  /// Total simulated seconds across categories.
  double TotalSeconds() const;

  /// Resets all counters.
  void Reset() { categories_.fill(0.0); }

  /// Adds another clock's counters into this one.
  void Merge(const SimClock& other);

 private:
  std::array<double, kNumCostCategories> categories_;
};

/// Calibrated throughput constants. All per-pixel costs are in seconds per
/// native-resolution pixel processed.
struct CostConstants {
  /// H264-like decode: seconds per output pixel plus per-frame overhead.
  double decode_sec_per_pixel = 2.2e-9;
  double decode_sec_per_frame = 2.0e-4;
  /// Segmentation proxy model (shallow CNN).
  double proxy_sec_per_pixel = 3.0e-9;
  double proxy_sec_per_frame = 2.0e-4;
  /// Recurrent tracker: per processed frame and per detection matched.
  double track_sec_per_frame = 1.5e-4;
  double track_sec_per_detection = 4.0e-5;
  /// SORT tracker (cheaper, no neural net).
  double sort_sec_per_detection = 8.0e-6;
  /// Track refinement per extracted track (kNN against cluster index).
  double refine_sec_per_track = 3.0e-5;
  /// Post-processing query over extracted tracks, per track examined.
  double query_sec_per_track = 2.0e-6;
};

/// Returns the default calibrated constants.
const CostConstants& DefaultCostConstants();

}  // namespace otif::models

#endif  // OTIF_MODELS_COST_MODEL_H_
