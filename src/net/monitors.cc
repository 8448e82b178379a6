#include "src/net/monitors.h"

#include "src/util/check.h"

namespace bundler {

void QueueDelayMonitor::OnDequeue(const Packet& pkt, TimeDelta queue_delay, TimePoint now) {
  if (!filter_.Matches(pkt)) {
    return;
  }
  delay_ms_.Add(now, queue_delay.ToMillis());
}

double QueueDelayMonitor::DelayMsAt(TimePoint t) const {
  const auto& samples = delay_ms_.samples();
  if (samples.empty() || samples.front().time > t) {
    return 0.0;
  }
  // Binary search for the latest sample at or before t.
  size_t lo = 0;
  size_t hi = samples.size();
  while (hi - lo > 1) {
    size_t mid = lo + (hi - lo) / 2;
    if (samples[mid].time <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return samples[lo].value;
}

RateMeter::RateMeter(Simulator* sim, TimeDelta window, PacketFilter filter)
    : window_(window), filter_(filter), window_start_(sim->now()) {
  BUNDLER_CHECK(window.nanos() > 0);
}

void RateMeter::Roll(TimePoint now) {
  while (now >= window_start_ + window_) {
    TimePoint mid = window_start_ + window_ / 2;
    double mbps = static_cast<double>(window_bytes_) * 8.0 / window_.ToSeconds() * 1e-6;
    rate_mbps_.Add(mid, mbps);
    cumulative_bytes_.Add(window_start_ + window_, static_cast<double>(total_bytes_));
    window_start_ += window_;
    window_bytes_ = 0;
  }
}

void RateMeter::OnDequeue(const Packet& pkt, TimeDelta queue_delay, TimePoint now) {
  (void)queue_delay;
  Roll(now);
  if (!filter_.Matches(pkt)) {
    return;
  }
  window_bytes_ += pkt.size_bytes;
  total_bytes_ += pkt.size_bytes;
}

Rate RateMeter::AverageRate(TimePoint from, TimePoint to) const {
  if (to <= from) {
    return Rate::Zero();
  }
  double mean_mbps = rate_mbps_.MeanInRange(from, to);
  return Rate::Mbps(mean_mbps);
}

double RateMeter::RateMbpsAt(TimePoint t) const {
  TimePoint from = t - window_;
  TimePoint to = t + window_;
  return rate_mbps_.MeanInRange(from, to);
}

}  // namespace bundler
