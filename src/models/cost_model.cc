#include "models/cost_model.h"

#include "util/logging.h"

namespace otif::models {

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

}  // namespace otif::models
