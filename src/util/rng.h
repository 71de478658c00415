#ifndef OTIF_UTIL_RNG_H_
#define OTIF_UTIL_RNG_H_

#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace otif {

/// Deterministic pseudo-random number generator (xoshiro256**, seeded via
/// SplitMix64). Every stochastic component in OTIF takes an explicit Rng so
/// that datasets, model training, and experiments are reproducible from a
/// single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  /// Re-seeds the generator; identical seeds yield identical streams.
  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
    has_cached_gaussian_ = false;
  }

  /// Uniform 64-bit value.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    OTIF_CHECK_LE(lo, hi);
    return lo + (hi - lo) * NextDouble();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    OTIF_CHECK_GT(n, 0u);
    // Rejection sampling removes modulo bias.
    const uint64_t threshold = (0 - n) % n;
    for (;;) {
      const uint64_t r = NextUint64();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    OTIF_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw with probability p of returning true.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Standard normal via Box-Muller (cached pair).
  double Gaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300) u1 = NextDouble();
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gaussian_ = r * std::sin(theta);
    has_cached_gaussian_ = true;
    return r * std::cos(theta);
  }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Derives an independent child generator (for splitting streams across
  /// components without coupling their consumption order).
  Rng Fork() { return Rng(NextUint64()); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace otif

#endif  // OTIF_UTIL_RNG_H_
