#include "src/bundler/pi_controller.h"

#include <algorithm>

namespace bundler {

PiController::PiController() : rate_bps_(kMinRate.bps()) {}

void PiController::Reset(Rate initial_rate, int64_t queue_bytes, TimePoint now) {
  rate_bps_ = std::clamp(initial_rate.bps(), kMinRate.bps(), kMaxRate.bps());
  prev_queue_bytes_ = queue_bytes;
  prev_time_ = now;
  initialized_ = true;
  if (ctr_resets_ != nullptr) {
    ++*ctr_resets_;
  }
  if (tracer_ != nullptr && tracer_->enabled(obs::TraceCat::kPi)) {
    tracer_->Trace(obs::TraceCat::kPi, obs::TraceEv::kPiReset, comp_, now,
                   static_cast<uint64_t>(rate_bps_),
                   static_cast<uint64_t>(queue_bytes));
  }
}

int64_t PiController::TargetQueueBytes() const {
  return static_cast<int64_t>(rate_bps_ / 8.0 * kTargetQueueDelay.ToSeconds());
}

Rate PiController::Update(int64_t queue_bytes, TimePoint now) {
  if (!initialized_) {
    Reset(Rate::BitsPerSec(rate_bps_), queue_bytes, now);
    return rate();
  }
  TimeDelta dt = now - prev_time_;
  if (dt <= TimeDelta::Zero()) {
    return rate();
  }
  double dt_s = dt.ToSeconds();
  double q_err_bytes = static_cast<double>(queue_bytes - TargetQueueBytes());
  double dq_bytes = static_cast<double>(queue_bytes - prev_queue_bytes_);
  // Both terms positive when the queue is above target / growing -> send
  // faster to shrink it toward q_T.
  double dr_bytes_per_s = kAlpha * q_err_bytes * dt_s + kBeta * dq_bytes;
  double dr_bps = dr_bytes_per_s * 8.0;
  double max_step = kMaxStepFrac * rate_bps_;
  rate_bps_ += std::clamp(dr_bps, -max_step, max_step);
  rate_bps_ = std::clamp(rate_bps_, kMinRate.bps(), kMaxRate.bps());
  prev_queue_bytes_ = queue_bytes;
  prev_time_ = now;
  if (ctr_updates_ != nullptr) {
    ++*ctr_updates_;
  }
  if (tracer_ != nullptr && tracer_->enabled(obs::TraceCat::kPi)) {
    tracer_->Trace(obs::TraceCat::kPi, obs::TraceEv::kPiUpdate, comp_, now,
                   static_cast<uint64_t>(rate_bps_),
                   static_cast<uint64_t>(queue_bytes));
  }
  return rate();
}

}  // namespace bundler
