// Periodic sampler of a qdisc's occupancy (and implied delay at a reference
// rate). Drives Fig. 2's "queue shifts to the sendbox" time series.
#ifndef SRC_METRICS_QUEUE_MONITOR_H_
#define SRC_METRICS_QUEUE_MONITOR_H_

#include "src/qdisc/qdisc.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulator.h"
#include "src/util/rate.h"
#include "src/util/timeseries.h"

namespace bundler {

class QdiscSampler {
 public:
  // `rate_provider` converts occupancy to delay (bytes / current drain rate);
  // it may change over time (the sendbox rate does). Stored inline in a
  // move-only InlineFunction: constructing a sampler never heap-allocates.
  QdiscSampler(Simulator* sim, const Qdisc* qdisc, TimeDelta interval,
               InlineFunction<Rate()> rate_provider);
  ~QdiscSampler();
  QdiscSampler(const QdiscSampler&) = delete;
  QdiscSampler& operator=(const QdiscSampler&) = delete;

  const TimeSeries& bytes() const { return bytes_; }
  const TimeSeries& delay_ms() const { return delay_ms_; }

 private:
  void Tick();

  Simulator* sim_;
  const Qdisc* qdisc_;
  TimeDelta interval_;
  InlineFunction<Rate()> rate_provider_;
  EventId timer_ = kInvalidEventId;
  TimeSeries bytes_;
  TimeSeries delay_ms_;
};

}  // namespace bundler

#endif  // SRC_METRICS_QUEUE_MONITOR_H_
