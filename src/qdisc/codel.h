// CoDel AQM (Nichols & Jacobson, "Controlling Queue Delay"). Packets whose
// sojourn time stays above `target` for at least `interval` are dropped at
// dequeue, with the drop rate increasing by an inverse-sqrt control law.
// FqCodel runs one instance per flow bucket.
#ifndef SRC_QDISC_CODEL_H_
#define SRC_QDISC_CODEL_H_

#include <cstdint>

#include "src/util/time.h"

namespace bundler {

struct CodelParams {
  TimeDelta target = TimeDelta::Millis(5);
  TimeDelta interval = TimeDelta::Millis(100);
};

// The control-law state machine, independent of queue storage so FQ-CoDel can
// embed one per flow.
class CodelState {
 public:
  CodelState() = default;  // default params; FqCodel re-seeds per bucket
  explicit CodelState(const CodelParams& params) : params_(params) {}

  // Decide whether the packet dequeued at `now` with the given sojourn should
  // be dropped. Call for every dequeued packet, in order.
  bool ShouldDrop(TimeDelta sojourn, TimePoint now);

  uint32_t drop_count() const { return count_; }

 private:
  TimePoint ControlLaw(TimePoint t) const;

  CodelParams params_;
  TimePoint first_above_time_ = TimePoint::Infinite();
  TimePoint drop_next_;
  uint32_t count_ = 0;
  uint32_t last_count_ = 0;
  bool dropping_ = false;
};

}  // namespace bundler

#endif  // SRC_QDISC_CODEL_H_
