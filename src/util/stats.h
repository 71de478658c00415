#ifndef OTIF_UTIL_STATS_H_
#define OTIF_UTIL_STATS_H_

#include <vector>

namespace otif {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Median (average of middle two for even sizes); 0 for an empty input.
double Median(std::vector<double> values);

/// Weighted median: smallest value v such that the weight of values <= v is
/// at least half the total weight. Weights must be non-negative with a
/// positive sum.
double WeightedMedian(const std::vector<double>& values,
                      const std::vector<double>& weights);

}  // namespace otif

#endif  // OTIF_UTIL_STATS_H_
