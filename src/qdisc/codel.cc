#include "src/qdisc/codel.h"

#include <cmath>

namespace bundler {

TimePoint CodelState::ControlLaw(TimePoint t) const {
  double scaled = kInterval.ToSeconds() / std::sqrt(static_cast<double>(count_));
  return t + TimeDelta::SecondsF(scaled);
}

bool CodelState::ShouldDrop(TimeDelta sojourn, TimePoint now) {
  bool ok_to_drop = false;
  if (sojourn < kTarget) {
    first_above_time_ = TimePoint::Infinite();
  } else {
    if (first_above_time_.IsInfinite()) {
      first_above_time_ = now + kInterval;
    } else if (now >= first_above_time_) {
      ok_to_drop = true;
    }
  }

  if (dropping_) {
    if (!ok_to_drop) {
      dropping_ = false;
      return false;
    }
    if (now >= drop_next_) {
      ++count_;
      drop_next_ = ControlLaw(drop_next_);
      return true;
    }
    return false;
  }

  if (ok_to_drop) {
    dropping_ = true;
    // Restart from a drop rate informed by the last dropping episode
    // (the standard CoDel "resume where we left off" heuristic).
    uint32_t delta = count_ - last_count_;
    count_ = (delta > 1 && now - drop_next_ < kInterval * 16) ? delta : 1;
    drop_next_ = ControlLaw(now);
    last_count_ = count_;
    return true;
  }
  return false;
}

}  // namespace bundler
