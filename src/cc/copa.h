// Copa (Arun & Balakrishnan, NSDI 2018) adapted to aggregate (bundle) rate
// control — the paper's default sendbox algorithm. Copa targets a sending
// rate of 1/(delta * d_q) packets/sec where d_q is the standing queueing
// delay, adjusting a window by v/(delta*cwnd) per acked packet with velocity
// doubling, and the sendbox enforces cwnd/RTT as the bundle rate (§6.1).
#ifndef SRC_CC_COPA_H_
#define SRC_CC_COPA_H_

#include "src/cc/cc.h"
#include "src/util/windowed_filter.h"

namespace bundler {

class Copa : public BundleCc {
 public:
  explicit Copa(Rate initial_rate);

  void OnMeasurement(const BundleMeasurement& m) override;
  Rate TargetRate() const override;
  void Reset(TimePoint now, Rate seed_rate) override;
  const char* name() const override { return "copa"; }

  double cwnd_pkts() const { return cwnd_pkts_; }
  double velocity() const { return velocity_; }
  bool in_slow_start() const { return in_slow_start_; }

 private:
  void UpdateVelocity(TimePoint now, bool direction_up);
  void ClampCwnd(const BundleMeasurement& m);

  Rate initial_rate_;
  Rate seed_rate_;  // window-seed basis; initial_rate_ unless Reset was warm
  double cwnd_pkts_;
  bool cwnd_seeded_ = false;
  TimeDelta srtt_ = TimeDelta::Millis(100);
  bool have_srtt_ = false;
  WindowedMinFilter<int64_t> standing_rtt_filter_;  // min RTT over srtt/2

  bool in_slow_start_ = true;
  double velocity_ = 1.0;
  bool direction_up_ = true;
  int same_direction_rtts_ = 0;
  TimePoint last_direction_check_;
};

}  // namespace bundler

#endif  // SRC_CC_COPA_H_
