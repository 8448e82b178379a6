#include "src/util/timeseries.h"

#include <algorithm>

namespace bundler {

double TimeSeries::MeanInRange(TimePoint from, TimePoint to) const {
  double sum = 0.0;
  size_t n = 0;
  for (const Sample& s : samples_) {
    if (s.time >= from && s.time < to) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double TimeSeries::MaxValue() const {
  double best = 0.0;
  for (const Sample& s : samples_) {
    best = std::max(best, s.value);
  }
  return best;
}

std::vector<TimeSeries::Sample> TimeSeries::Downsample(TimeDelta bucket) const {
  std::vector<Sample> out;
  if (samples_.empty() || bucket.nanos() <= 0) {
    return out;
  }
  int64_t width = bucket.nanos();
  int64_t current_bucket = samples_.front().time.nanos() / width;
  double sum = 0.0;
  size_t n = 0;
  auto flush = [&]() {
    if (n > 0) {
      TimePoint mid = TimePoint::FromNanos(current_bucket * width + width / 2);
      out.push_back({mid, sum / static_cast<double>(n)});
    }
    sum = 0.0;
    n = 0;
  };
  for (const Sample& s : samples_) {
    int64_t b = s.time.nanos() / width;
    if (b != current_bucket) {
      flush();
      current_bucket = b;
    }
    sum += s.value;
    ++n;
  }
  flush();
  return out;
}

}  // namespace bundler
