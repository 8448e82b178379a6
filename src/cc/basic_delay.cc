#include "src/cc/basic_delay.h"

#include <algorithm>

namespace bundler {
namespace {

constexpr double kBeta = 0.2;               // gain on the delay error term
constexpr double kDelayTargetFrac = 0.125;  // d_T as a fraction of min RTT
constexpr TimeDelta kMinDelayTarget = TimeDelta::Millis(2);
constexpr TimeDelta kMuWindow = TimeDelta::Seconds(10);

}  // namespace

BasicDelay::BasicDelay(Rate initial_rate)
    : initial_rate_(initial_rate),
      rate_(initial_rate),
      mu_(initial_rate),
      cross_(Rate::Zero()),
      mu_filter_(kMuWindow) {}

void BasicDelay::Reset(TimePoint now, Rate seed_rate) {
  (void)now;
  Rate start = seed_rate.IsZero() ? initial_rate_ : seed_rate;
  rate_ = start;
  mu_ = start;
  cross_ = Rate::Zero();
  mu_filter_.Reset();
}

TimeDelta BasicDelay::delay_target(TimeDelta min_rtt) const {
  return std::max(kMinDelayTarget, min_rtt * kDelayTargetFrac);
}

void BasicDelay::OnMeasurement(const BundleMeasurement& m) {
  if (!m.fresh || m.rtt <= TimeDelta::Zero()) {
    return;
  }
  mu_filter_.Update(m.now, m.recv_rate.BytesPerSecond());
  mu_ = Rate::BytesPerSec(mu_filter_.Get());

  TimeDelta dq = m.rtt - m.min_rtt;
  TimeDelta d_t = delay_target(m.min_rtt);

  // Cross-traffic estimate: only meaningful when the bottleneck is busy
  // (some queue exists). rout is our share of mu, so z = rin*mu/rout - rin.
  if (dq > d_t / 2 && m.recv_rate.bps() > 0) {
    double z = m.send_rate.bps() * (mu_.bps() / m.recv_rate.bps()) - m.send_rate.bps();
    cross_ = Rate::BitsPerSec(std::max(0.0, z));
  } else {
    cross_ = Rate::Zero();
  }

  double available = mu_.bps() - cross_.bps();
  double correction =
      kBeta * mu_.bps() * (d_t - dq).ToSeconds() / d_t.ToSeconds();
  double r = available + correction;
  // Keep within sane bounds: never stall completely, never exceed 2x the
  // observed capacity.
  r = std::clamp(r, 0.05 * mu_.bps(), 2.0 * mu_.bps());
  rate_ = Rate::BitsPerSec(r);
}

}  // namespace bundler
