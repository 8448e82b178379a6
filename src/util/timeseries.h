// Append-only (time, value) series used by monitors and bench output.
#ifndef SRC_UTIL_TIMESERIES_H_
#define SRC_UTIL_TIMESERIES_H_

#include <vector>

#include "src/util/time.h"

namespace bundler {

class TimeSeries {
 public:
  struct Sample {
    TimePoint time;
    double value;
  };

  void Add(TimePoint t, double v) { samples_.push_back({t, v}); }
  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }

  // Mean of values with time in [from, to).
  double MeanInRange(TimePoint from, TimePoint to) const;
  // Maximum value over the whole series (0 when empty).
  double MaxValue() const;

  // Average into fixed-width buckets; returns one sample per non-empty bucket
  // (bucket midpoint, mean value). Useful for printing compact series.
  std::vector<Sample> Downsample(TimeDelta bucket) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace bundler

#endif  // SRC_UTIL_TIMESERIES_H_
