// Flow-completion-time bookkeeping. Each web request is registered when the
// application issues it and marked complete when the receiver has every byte.
// "Slowdown" follows §7.2: completion time divided by the completion time the
// same request would see on an unloaded network (supplied by IdealFct,
// which measures it by simulation so the convention matches exactly).
#ifndef SRC_METRICS_FCT_H_
#define SRC_METRICS_FCT_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/util/stats.h"
#include "src/util/time.h"

namespace bundler {

struct RequestRecord {
  uint64_t id = 0;
  int64_t size_bytes = 0;
  TimePoint start;
  TimePoint end;
  bool done = false;
  uint8_t priority = 0;
};

// Paper's Fig. 9 request-size buckets.
inline constexpr int64_t kSmallFlowMaxBytes = 10 * 1000;
inline constexpr int64_t kMediumFlowMaxBytes = 1000 * 1000;

struct RequestFilter {
  TimePoint min_start = TimePoint::Zero();
  TimePoint max_start = TimePoint::Infinite();
  int64_t min_size = 0;
  int64_t max_size = std::numeric_limits<int64_t>::max();
  int priority = -1;  // -1 = any

  bool Matches(const RequestRecord& r) const;

  static RequestFilter SmallFlows();
  static RequestFilter MediumFlows();
  static RequestFilter LargeFlows();
};

using IdealFctFn = std::function<TimeDelta(int64_t size_bytes)>;

class FctRecorder {
 public:
  uint64_t RegisterRequest(int64_t size_bytes, TimePoint start, uint8_t priority = 0);
  void OnComplete(uint64_t id, TimePoint end);

  size_t total() const { return records_.size(); }
  size_t completed() const { return completed_; }
  const std::vector<RequestRecord>& records() const { return records_; }

  // FCTs in seconds for completed requests matching the filter.
  QuantileEstimator Fcts(const RequestFilter& filter = RequestFilter()) const;
  // Slowdowns (>= ~1) for completed requests matching the filter.
  QuantileEstimator Slowdowns(const IdealFctFn& ideal,
                              const RequestFilter& filter = RequestFilter()) const;

 private:
  std::vector<RequestRecord> records_;
  size_t completed_ = 0;
};

}  // namespace bundler

#endif  // SRC_METRICS_FCT_H_
