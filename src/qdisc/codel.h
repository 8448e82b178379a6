// CoDel AQM (Nichols & Jacobson, "Controlling Queue Delay"). Packets whose
// sojourn time stays above kTarget for at least kInterval are dropped at
// dequeue, with the drop rate increasing by an inverse-sqrt control law.
// FqCodel runs one instance per flow bucket.
#ifndef SRC_QDISC_CODEL_H_
#define SRC_QDISC_CODEL_H_

#include <cstdint>

#include "src/util/time.h"

namespace bundler {

// The control-law state machine, independent of queue storage so FQ-CoDel can
// embed one per flow.
class CodelState {
 public:
  static constexpr TimeDelta kTarget = TimeDelta::Millis(5);
  static constexpr TimeDelta kInterval = TimeDelta::Millis(100);

  // Decide whether the packet dequeued at `now` with the given sojourn should
  // be dropped. Call for every dequeued packet, in order.
  bool ShouldDrop(TimeDelta sojourn, TimePoint now);

  uint32_t drop_count() const { return count_; }

 private:
  TimePoint ControlLaw(TimePoint t) const;

  TimePoint first_above_time_ = TimePoint::Infinite();
  TimePoint drop_next_;
  uint32_t count_ = 0;
  uint32_t last_count_ = 0;
  bool dropping_ = false;
};

}  // namespace bundler

#endif  // SRC_QDISC_CODEL_H_
