#include "src/sim/simulator.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

EventId Simulator::SchedulePeriodic(TimeDelta first_delay, TimeDelta period,
                                    EventQueue::Callback cb) {
  BUNDLER_CHECK(first_delay >= TimeDelta::Zero());
  BUNDLER_CHECK(period > TimeDelta::Zero());
  return queue_.PushPeriodic(now_ + first_delay, period, std::move(cb));
}

void Simulator::DispatchNext() {
  now_ = queue_.NextTime();
  queue_.DispatchHead();
  ++events_dispatched_;
}

void Simulator::RunUntil(TimePoint until) {
  stopped_ = false;
  const uint64_t start_dispatched = events_dispatched_;
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunStart, sim_comp_,
               now_, static_cast<uint64_t>(until.nanos()));
  while (!stopped_ && !queue_.Empty()) {
    if (queue_.NextTime() > until) {
      break;
    }
    DispatchNext();
  }
  if (now_ < until) {
    now_ = until;
  }
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunEnd, sim_comp_, now_,
               events_dispatched_ - start_dispatched, events_dispatched_);
}

void Simulator::RunAll() {
  stopped_ = false;
  const uint64_t start_dispatched = events_dispatched_;
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunStart, sim_comp_,
               now_);
  while (!stopped_ && !queue_.Empty()) {
    DispatchNext();
  }
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunEnd, sim_comp_, now_,
               events_dispatched_ - start_dispatched, events_dispatched_);
}

}  // namespace bundler
