#include "models/cost_model.h"

#include "util/logging.h"

namespace otif::models {
namespace {

/// Frames per group of pictures in DecodeSeconds' model.
constexpr int kGopSize = 16;

}  // namespace

const char* CostCategoryName(CostCategory c) {
  switch (c) {
    case CostCategory::kDecode:
      return "decode";
    case CostCategory::kProxy:
      return "proxy";
    case CostCategory::kDetect:
      return "detect";
    case CostCategory::kTrack:
      return "track";
    case CostCategory::kRefine:
      return "refine";
    case CostCategory::kQuery:
      return "query";
    case CostCategory::kOther:
      return "other";
  }
  return "unknown";
}

void SimClock::Charge(CostCategory category, double seconds) {
  OTIF_CHECK_GE(seconds, 0.0);
  categories_[static_cast<size_t>(category)] += seconds;
}

double SimClock::Seconds(CostCategory category) const {
  return categories_[static_cast<size_t>(category)];
}

double SimClock::TotalSeconds() const {
  double total = 0.0;
  for (double s : categories_) total += s;
  return total;
}

void SimClock::Merge(const SimClock& other) {
  for (int i = 0; i < kNumCostCategories; ++i) {
    categories_[static_cast<size_t>(i)] += other.categories_[static_cast<size_t>(i)];
  }
}

const CostConstants& DefaultCostConstants() {
  static const CostConstants kConstants;
  return kConstants;
}

double DecodeSeconds(int width, int height, int num_frames, int gap,
                     double scale) {
  const CostConstants& costs = DefaultCostConstants();
  const int samples = (num_frames + gap - 1) / gap;
  const double frames_per_sample =
      gap < kGopSize ? static_cast<double>(gap)
                     : static_cast<double>(kGopSize) / 2.0 + 1.0;
  const double frames_decoded = samples * frames_per_sample;
  const double px_per_frame =
      static_cast<double>(width) * height * scale * scale;
  return frames_decoded * (costs.decode_sec_per_frame +
                           px_per_frame * costs.decode_sec_per_pixel);
}

}  // namespace otif::models
