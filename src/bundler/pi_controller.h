// PI controller used in traffic-passing mode (§5.1): while buffer-filling
// cross traffic is present, the sendbox stops controlling in-network queueing
// but still maintains a small standing queue q_T (10 ms: 8 ms for the Nimbus
// up-pulse area + 2 ms cushion) so that elasticity probing can continue.
// Rate update: dr/dt = alpha * (q - q_T) + beta * dq/dt, alpha = beta = 10.
// When the local queue exceeds target, the rate rises to drain it.
#ifndef SRC_BUNDLER_PI_CONTROLLER_H_
#define SRC_BUNDLER_PI_CONTROLLER_H_

#include "src/obs/trace.h"
#include "src/util/rate.h"
#include "src/util/time.h"

namespace bundler {

class PiController {
 public:
  static constexpr double kAlpha = 10.0;  // 1/s^2 on the queue error (bytes)
  static constexpr double kBeta = 10.0;   // 1/s on the queue derivative (bytes/s)
  static constexpr TimeDelta kTargetQueueDelay = TimeDelta::Millis(10);
  static constexpr Rate kMinRate = Rate::Mbps(1);
  static constexpr Rate kMaxRate = Rate::Gbps(10);
  // Per-update relative slew bound. Keeps a single control step's change
  // bounded so controller variation never dominates the Nimbus pulse (§5.1
  // discusses exactly this tradeoff for large alpha/beta).
  static constexpr double kMaxStepFrac = 0.25;

  PiController();

  void Reset(Rate initial_rate, int64_t queue_bytes, TimePoint now);
  // One control step; returns the updated rate.
  Rate Update(int64_t queue_bytes, TimePoint now);

  Rate rate() const { return Rate::BitsPerSec(rate_bps_); }
  int64_t TargetQueueBytes() const;

  // Observability seam: the owning BundleController attaches the tracer
  // (component kind "pi") and registry-owned update/reset counters.
  void BindObs(obs::Tracer* tracer, uint32_t comp, uint64_t* updates,
               uint64_t* resets) {
    tracer_ = tracer;
    comp_ = comp;
    ctr_updates_ = updates;
    ctr_resets_ = resets;
  }

 private:
  obs::Tracer* tracer_ = nullptr;
  uint32_t comp_ = 0;
  uint64_t* ctr_updates_ = nullptr;
  uint64_t* ctr_resets_ = nullptr;
  double rate_bps_;
  int64_t prev_queue_bytes_ = 0;
  TimePoint prev_time_;
  bool initialized_ = false;
};

}  // namespace bundler

#endif  // SRC_BUNDLER_PI_CONTROLLER_H_
