// Nimbus "BasicDelay" rate controller (Goyal et al.): track the available
// rate (capacity estimate minus cross-traffic estimate) and correct toward a
// small target queueing delay. Evaluated as an alternative sendbox algorithm
// in Fig. 14, and the natural companion to Nimbus elasticity detection.
#ifndef SRC_CC_BASIC_DELAY_H_
#define SRC_CC_BASIC_DELAY_H_

#include "src/cc/cc.h"
#include "src/util/windowed_filter.h"

namespace bundler {

class BasicDelay : public BundleCc {
 public:
  explicit BasicDelay(Rate initial_rate);

  void OnMeasurement(const BundleMeasurement& m) override;
  Rate TargetRate() const override { return rate_; }
  void Reset(TimePoint now, Rate seed_rate) override;
  const char* name() const override { return "basic_delay"; }

  Rate mu_estimate() const { return mu_; }
  Rate cross_estimate() const { return cross_; }
  TimeDelta delay_target(TimeDelta min_rtt) const;

 private:
  Rate initial_rate_;
  Rate rate_;
  Rate mu_;
  Rate cross_;
  WindowedMaxFilter<double> mu_filter_;  // bytes/sec of observed receive rate
};

}  // namespace bundler

#endif  // SRC_CC_BASIC_DELAY_H_
