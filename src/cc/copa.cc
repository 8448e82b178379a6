#include "src/cc/copa.h"

#include <algorithm>
#include <limits>

#include "src/net/packet.h"

namespace bundler {
namespace {

constexpr double kDelta = 0.5;
constexpr double kMinCwndPkts = 4.0;
constexpr double kMaxVelocity = 64.0;
// Cap on cwnd relative to the measured delivery BDP (recv_rate * rtt).
// The aggregate window is a virtual knob, not real in-flight data; without
// this tie to observed throughput it can run away arbitrarily far above
// the path and then take tens of seconds to walk back down.
constexpr double kMaxCwndBdp = 2.0;

}  // namespace

Copa::Copa(Rate initial_rate)
    : initial_rate_(initial_rate),
      seed_rate_(initial_rate),
      cwnd_pkts_(kInitialCwndPkts),
      standing_rtt_filter_(TimeDelta::Millis(50)) {}

void Copa::Reset(TimePoint now, Rate seed_rate) {
  seed_rate_ = seed_rate.IsZero() ? initial_rate_ : seed_rate;
  cwnd_pkts_ = kInitialCwndPkts;
  cwnd_seeded_ = false;
  have_srtt_ = false;
  standing_rtt_filter_.Reset();
  in_slow_start_ = true;
  velocity_ = 1.0;
  direction_up_ = true;
  same_direction_rtts_ = 0;
  last_direction_check_ = now;
}

void Copa::UpdateVelocity(TimePoint now, bool direction_up) {
  if (now - last_direction_check_ < srtt_) {
    return;  // evaluate direction once per RTT
  }
  last_direction_check_ = now;
  if (direction_up == direction_up_) {
    ++same_direction_rtts_;
    // Velocity doubles only after the direction has persisted for 3 RTTs.
    if (same_direction_rtts_ >= 3) {
      velocity_ = std::min(velocity_ * 2.0, kMaxVelocity);
    }
  } else {
    direction_up_ = direction_up;
    same_direction_rtts_ = 0;
    velocity_ = 1.0;
  }
  // Cap so the window can change by at most ~2x per RTT (as in the reference
  // Copa implementation): one RTT's worth of acks applies ~v/delta packets.
  velocity_ = std::min(velocity_, kDelta * cwnd_pkts_);
  velocity_ = std::max(velocity_, 1.0);
}

void Copa::OnMeasurement(const BundleMeasurement& m) {
  if (!m.fresh || m.rtt <= TimeDelta::Zero()) {
    return;
  }
  if (!have_srtt_) {
    srtt_ = m.rtt;
    have_srtt_ = true;
  } else {
    srtt_ = TimeDelta::Nanos((srtt_.nanos() * 7 + m.rtt.nanos()) / 8);
  }
  if (!cwnd_seeded_) {
    // Seed the window model from the starting rate (configured initial, or
    // the observed rate a warm Reset passed) so TargetRate does not collapse
    // to kInitialCwndPkts/RTT on the first measurement.
    TimeDelta basis = m.min_rtt > TimeDelta::Zero() ? m.min_rtt : m.rtt;
    double seed = seed_rate_.BytesPerSecond() * basis.ToSeconds() / kMssBytes;
    cwnd_pkts_ = std::max(cwnd_pkts_, seed);
    cwnd_seeded_ = true;
  }
  standing_rtt_filter_.set_window(std::max(srtt_ / 2, TimeDelta::Millis(1)));
  standing_rtt_filter_.Update(m.now, m.rtt.nanos());
  TimeDelta standing = TimeDelta::Nanos(standing_rtt_filter_.Get());
  TimeDelta dq = standing - m.min_rtt;

  double acked_pkts = static_cast<double>(m.acked_bytes) / kMssBytes;

  // Current rate in packets/sec, from the window model.
  double current_rate = cwnd_pkts_ / std::max(standing.ToSeconds(), 1e-4);

  // Below the measurement noise floor the standing queue is indistinguishable
  // from zero: the target is effectively unbounded and the direction is up.
  // A fixed dq floor would be wrong here — it would silently impose a rate
  // ceiling of 1/(delta*floor) and cap fast paths. The velocity caps above
  // keep the resulting probe/back-off oscillation to ~2x per RTT.
  constexpr auto kDqNoiseFloor = TimeDelta::Micros(250);
  if (dq <= kDqNoiseFloor) {
    if (in_slow_start_) {
      cwnd_pkts_ += acked_pkts;  // 2x per RTT
    } else {
      UpdateVelocity(m.now, /*direction_up=*/true);
      cwnd_pkts_ += velocity_ * acked_pkts / (kDelta * cwnd_pkts_);
    }
    ClampCwnd(m);
    return;
  }

  double target_rate = 1.0 / (kDelta * dq.ToSeconds());  // packets/sec
  if (in_slow_start_) {
    if (current_rate < target_rate) {
      cwnd_pkts_ += acked_pkts;
      ClampCwnd(m);
      return;
    }
    in_slow_start_ = false;
  }
  bool up = current_rate < target_rate;
  UpdateVelocity(m.now, up);
  double step = velocity_ * acked_pkts / (kDelta * cwnd_pkts_);
  cwnd_pkts_ += up ? step : -step;
  ClampCwnd(m);
}

void Copa::ClampCwnd(const BundleMeasurement& m) {
  if (m.recv_rate.bps() > 0 && srtt_ > TimeDelta::Zero()) {
    double bdp_pkts = m.recv_rate.BytesPerSecond() * srtt_.ToSeconds() / kMssBytes;
    double cap = std::max(kMaxCwndBdp * bdp_pkts, kInitialCwndPkts);
    cwnd_pkts_ = std::min(cwnd_pkts_, cap);
  }
  cwnd_pkts_ = std::max(cwnd_pkts_, kMinCwndPkts);
}

Rate Copa::TargetRate() const {
  if (!have_srtt_) {
    return initial_rate_;
  }
  TimeDelta standing = TimeDelta::Nanos(standing_rtt_filter_.Get());
  double secs = std::max(standing.ToSeconds(), 1e-4);
  return Rate::BytesPerSec(cwnd_pkts_ * kMssBytes / secs);
}

}  // namespace bundler
