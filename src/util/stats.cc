#include "util/stats.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace otif {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double WeightedMedian(const std::vector<double>& values,
                      const std::vector<double>& weights) {
  OTIF_CHECK_EQ(values.size(), weights.size());
  OTIF_CHECK(!values.empty());
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  double total = 0.0;
  for (double w : weights) {
    OTIF_CHECK_GE(w, 0.0);
    total += w;
  }
  OTIF_CHECK_GT(total, 0.0);
  double cumulative = 0.0;
  for (size_t idx : order) {
    cumulative += weights[idx];
    if (cumulative >= 0.5 * total) return values[idx];
  }
  return values[order.back()];
}

}  // namespace otif
