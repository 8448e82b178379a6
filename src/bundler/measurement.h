// Sendbox measurement engine (§4.5, Fig. 4). Records epoch boundary packets
// as they leave the shaper; matches congestion-ACK feedback from the
// receivebox against those records; derives RTT, send rate, and receive rate
// per epoch; aggregates them over a sliding window of roughly one RTT; and
// tracks the out-of-order feedback fraction used for multipath detection
// (§5.2). The engine is robust to lost boundary packets, lost feedback, and
// epoch-size mismatch: unmatched records simply make the next matched epoch
// span a longer interval.
#ifndef SRC_BUNDLER_MEASUREMENT_H_
#define SRC_BUNDLER_MEASUREMENT_H_

#include <deque>
#include <utility>

#include "src/cc/cc.h"
#include "src/sim/inline_function.h"
#include "src/util/rate.h"
#include "src/util/ring_buffer.h"
#include "src/util/time.h"
#include "src/util/windowed_filter.h"

namespace bundler {

// A raw per-epoch sample, also surfaced to benches via the sample callback
// (the Fig. 5/6 estimate-accuracy studies consume these).
struct EpochSample {
  TimePoint now;
  TimeDelta rtt;
  Rate send_rate;   // only valid for in-order samples
  Rate recv_rate;   // only valid for in-order samples
  int64_t bytes = 0;
  bool in_order = true;
  bool has_rates = false;
};

class MeasurementEngine {
 public:
  static constexpr TimeDelta kMinRttWindow = TimeDelta::Seconds(100);
  static constexpr TimeDelta kOooWindow = TimeDelta::Seconds(5);
  static constexpr size_t kMaxOutstanding = 4096;  // boundary records kept awaiting feedback
  static constexpr size_t kMinOooSamples = 20;     // below this, the fraction reads as 0

  MeasurementEngine();

  // Data plane: an epoch boundary packet left the sendbox.
  void OnBoundarySent(uint64_t hash, TimePoint now, int64_t bytes_sent_cum);
  // Control plane: a congestion ACK arrived from the receivebox.
  void OnFeedback(uint64_t hash, int64_t bytes_received_cum, TimePoint now);

  // Aggregate over the sliding window; `fresh` is true iff feedback arrived
  // since the previous call. Safe to call with no data yet.
  BundleMeasurement Current(TimePoint now);

  bool has_min_rtt() const { return have_rtt_; }
  TimeDelta min_rtt() const { return min_rtt_; }
  TimeDelta srtt() const { return srtt_; }
  // O(1) amortized: a running count of the window's flagged events.
  double OutOfOrderFraction(TimePoint now);
  // Drop accumulated ordering events; used when the sendbox re-probes delay
  // control so the decision reflects fresh conditions, not status-quo noise.
  void ResetOooHistory() {
    ooo_events_.clear();
    ooo_flagged_ = 0;
  }

  uint64_t feedback_matched() const { return feedback_matched_; }
  uint64_t feedback_ignored() const { return feedback_ignored_; }
  uint64_t records_expired() const { return records_expired_; }

  // Invoked for every raw epoch sample (in-order and out-of-order).
  void SetSampleCallback(InlineFunction<void(const EpochSample&)> cb) {
    sample_callback_ = std::move(cb);
  }

 private:
  struct BoundaryRecord {
    uint64_t hash;
    uint64_t seq;
    TimePoint t_sent;
    int64_t bytes_sent;
  };
  struct LastMatch {
    uint64_t seq = 0;
    TimePoint t_sent;
    int64_t bytes_sent = 0;
    TimePoint t_feedback;
    int64_t bytes_received = 0;
  };

  void ExpireOld(TimePoint now);
  void PushOooEvent(TimePoint now, bool out_of_order);
  void TrimOooWindow(TimePoint now);

  // Rings grow on demand (never to kMaxOutstanding up front) and reuse their
  // slots, so steady-state feedback allocates nothing.
  RingBuffer<BoundaryRecord> outstanding_;
  uint64_t next_record_seq_ = 1;

  bool have_match_ = false;
  LastMatch last_;

  // Sliding window of in-order epoch samples covering >= 1 srtt.
  RingBuffer<EpochSample> window_;

  WindowedMinFilter<int64_t> min_rtt_filter_;
  bool have_rtt_ = false;
  TimeDelta min_rtt_ = TimeDelta::Zero();
  TimeDelta srtt_ = TimeDelta::Millis(100);

  // A deque, not a ring: it spans kOooWindow (5 s) of feedback, and a ring
  // would hold that burst's high-water mark forever in every bundle.
  std::deque<std::pair<TimePoint, bool>> ooo_events_;
  size_t ooo_flagged_ = 0;  // events in ooo_events_ flagged out of order

  int64_t acked_bytes_since_poll_ = 0;
  bool fresh_since_poll_ = false;
  BundleMeasurement last_reported_;
  EpochSample last_inst_;  // newest in-order sample with valid rates

  uint64_t feedback_matched_ = 0;
  uint64_t feedback_ignored_ = 0;
  uint64_t records_expired_ = 0;

  InlineFunction<void(const EpochSample&)> sample_callback_;
};

}  // namespace bundler

#endif  // SRC_BUNDLER_MEASUREMENT_H_
