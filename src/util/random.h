// Deterministic, seedable random number source. Every stochastic component
// (workload arrivals, request sizes, jitter) draws from an explicitly passed
// `Rng`, so a run is fully reproducible from its seed.
#ifndef SRC_UTIL_RANDOM_H_
#define SRC_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace bundler {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform in [0, 1).
  double NextDouble() { return unit_(engine_); }

  uint64_t NextU64() { return engine_(); }

  // Exponential with the given mean (inter-arrival times of a Poisson
  // process).
  double NextExponential(double mean) {
    std::exponential_distribution<double> dist(1.0 / mean);
    return dist(engine_);
  }

  // Pick an index in [0, weights.size()) proportionally to `weights`.
  size_t NextWeighted(const std::vector<double>& weights);

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace bundler

#endif  // SRC_UTIL_RANDOM_H_
