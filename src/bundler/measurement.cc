#include "src/bundler/measurement.h"

#include <algorithm>

#include "src/util/check.h"

namespace bundler {

MeasurementEngine::MeasurementEngine() : min_rtt_filter_(kMinRttWindow) {}

void MeasurementEngine::OnBoundarySent(uint64_t hash, TimePoint now, int64_t bytes_sent_cum) {
  outstanding_.push_back(BoundaryRecord{hash, next_record_seq_++, now, bytes_sent_cum});
  if (outstanding_.size() > kMaxOutstanding) {
    outstanding_.pop_front();
    ++records_expired_;
  }
}

void MeasurementEngine::ExpireOld(TimePoint now) {
  // Records older than several RTTs will never be matched usefully; their
  // bytes are folded into the next matched epoch automatically because rates
  // are computed against the last *matched* record.
  TimeDelta expiry = std::max(srtt_ * 4.0, TimeDelta::Seconds(1));
  while (!outstanding_.empty() && now - outstanding_.front().t_sent > expiry) {
    outstanding_.pop_front();
    ++records_expired_;
  }
}

void MeasurementEngine::PushOooEvent(TimePoint now, bool out_of_order) {
  ooo_events_.emplace_back(now, out_of_order);
  if (out_of_order) {
    ++ooo_flagged_;
  }
  TrimOooWindow(now);
}

void MeasurementEngine::TrimOooWindow(TimePoint now) {
  while (!ooo_events_.empty() && now - ooo_events_.front().first > kOooWindow) {
    if (ooo_events_.front().second) {
      --ooo_flagged_;
    }
    ooo_events_.pop_front();
  }
}

void MeasurementEngine::OnFeedback(uint64_t hash, int64_t bytes_received_cum, TimePoint now) {
  ExpireOld(now);
  // Outstanding records are few (feedback arrives ~4x per RTT), so a linear
  // scan is cheaper than an index.
  size_t i = 0;
  while (i < outstanding_.size() && outstanding_[i].hash != hash) {
    ++i;
  }
  if (i == outstanding_.size()) {
    // Receivebox sampled more finely than we recorded (epoch resize in
    // flight, §4.5) or the record expired. Ignore.
    ++feedback_ignored_;
    return;
  }
  const BoundaryRecord rec = outstanding_[i];
  outstanding_.erase(i);
  ++feedback_matched_;

  TimeDelta rtt = now - rec.t_sent;
  min_rtt_filter_.Update(now, rtt.nanos());
  min_rtt_ = TimeDelta::Nanos(min_rtt_filter_.Get());
  srtt_ = have_rtt_ ? TimeDelta::Nanos((srtt_.nanos() * 7 + rtt.nanos()) / 8) : rtt;
  have_rtt_ = true;

  EpochSample sample;
  sample.now = now;
  sample.rtt = rtt;

  bool in_order = !have_match_ || rec.seq > last_.seq;
  sample.in_order = in_order;
  // Only inversions between boundaries sent meaningfully apart indicate path
  // imbalance (§5.2). Boundaries that left the sendbox nearly simultaneously
  // carry no ordering information: per-path queue jitter of a few ms flips
  // them even when the paths are perfectly balanced.
  TimeDelta ooo_guard = std::max(TimeDelta::Millis(2), min_rtt_ / 8);
  bool significant_ooo = !in_order && (last_.t_sent - rec.t_sent) > ooo_guard;
  PushOooEvent(now, significant_ooo);

  if (!in_order) {
    // A boundary from a slower load-balanced path arrived after a later one
    // was already matched (§5.2). Record the event; do not derive rates.
    if (sample_callback_) {
      sample_callback_(sample);
    }
    return;
  }

  if (have_match_) {
    TimeDelta send_span = rec.t_sent - last_.t_sent;
    TimeDelta recv_span = now - last_.t_feedback;
    int64_t sent_bytes = rec.bytes_sent - last_.bytes_sent;
    int64_t recv_bytes = bytes_received_cum - last_.bytes_received;
    if (send_span > TimeDelta::Zero() && recv_span > TimeDelta::Zero() && sent_bytes >= 0 &&
        recv_bytes >= 0) {
      sample.send_rate = Rate::FromBytesAndTime(sent_bytes, send_span);
      sample.recv_rate = Rate::FromBytesAndTime(recv_bytes, recv_span);
      sample.bytes = recv_bytes;
      sample.has_rates = true;
      window_.push_back(sample);
      acked_bytes_since_poll_ += recv_bytes;
      last_inst_ = sample;
    }
  }
  fresh_since_poll_ = true;
  have_match_ = true;
  last_.seq = rec.seq;
  last_.t_sent = rec.t_sent;
  last_.bytes_sent = rec.bytes_sent;
  last_.t_feedback = now;
  last_.bytes_received = bytes_received_cum;

  if (sample_callback_) {
    sample_callback_(sample);
  }
}

BundleMeasurement MeasurementEngine::Current(TimePoint now) {
  // Trim the window to ~one RTT of epochs (always keep the newest sample so
  // rates survive idle gaps).
  TimeDelta span = std::max(srtt_, TimeDelta::Millis(10));
  while (window_.size() > 1 && now - window_.front().now > span) {
    window_.pop_front();
  }

  BundleMeasurement m;
  m.now = now;
  m.min_rtt = min_rtt_;
  m.fresh = fresh_since_poll_;
  m.acked_bytes = acked_bytes_since_poll_;
  fresh_since_poll_ = false;
  acked_bytes_since_poll_ = 0;

  if (window_.empty()) {
    m.rtt = have_rtt_ ? last_reported_.rtt : TimeDelta::Zero();
    m.send_rate = last_reported_.send_rate;
    m.recv_rate = last_reported_.recv_rate;
    m.inst_rtt = last_inst_.rtt;
    m.inst_send_rate = last_inst_.send_rate;
    m.inst_recv_rate = last_inst_.recv_rate;
    last_reported_ = m;
    return m;
  }
  // Aggregate: average RTT, and byte-weighted rates over the window.
  int64_t rtt_sum = 0;
  double send_num = 0.0;
  double send_den = 0.0;
  double recv_num = 0.0;
  double recv_den = 0.0;
  for (size_t i = 0; i < window_.size(); ++i) {
    const EpochSample& s = window_[i];
    rtt_sum += s.rtt.nanos();
    // Weight each epoch's rate by its duration (reconstructed from bytes).
    double send_dt = s.send_rate.bps() > 0
                         ? static_cast<double>(s.bytes) * 8.0 / s.send_rate.bps()
                         : 0.0;
    double recv_dt = s.recv_rate.bps() > 0
                         ? static_cast<double>(s.bytes) * 8.0 / s.recv_rate.bps()
                         : 0.0;
    send_num += static_cast<double>(s.bytes) * 8.0;
    send_den += send_dt;
    recv_num += static_cast<double>(s.bytes) * 8.0;
    recv_den += recv_dt;
  }
  m.rtt = TimeDelta::Nanos(rtt_sum / static_cast<int64_t>(window_.size()));
  m.send_rate = send_den > 0 ? Rate::BitsPerSec(send_num / send_den) : Rate::Zero();
  m.recv_rate = recv_den > 0 ? Rate::BitsPerSec(recv_num / recv_den) : Rate::Zero();
  m.inst_rtt = last_inst_.rtt;
  m.inst_send_rate = last_inst_.send_rate;
  m.inst_recv_rate = last_inst_.recv_rate;
  last_reported_ = m;
  return m;
}

double MeasurementEngine::OutOfOrderFraction(TimePoint now) {
  TrimOooWindow(now);
  if (ooo_events_.size() < kMinOooSamples) {
    return 0.0;
  }
  return static_cast<double>(ooo_flagged_) / static_cast<double>(ooo_events_.size());
}

}  // namespace bundler
