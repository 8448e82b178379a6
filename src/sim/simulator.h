// Discrete-event simulator driver. Owns the clock and the event queue;
// every network component schedules timers through it.
//
// Scheduling guide for layers (see README "Simulator core"):
//  - One-shot work: Schedule/ScheduleAt. Slots are pooled and callbacks are
//    inline (InlineFunction), so this never heap-allocates.
//  - Steady-state timers (control ticks, samplers): SchedulePeriodic. The
//    event re-arms in place each firing — no cancel/push churn.
//  - Movable deadlines (shaper wakeups): keep the EventId, then Cancel it and
//    Schedule the new deadline. The new event reuses the freed slot.
//  - A stream of events with one callback that fire in the order they are
//    scheduled (a link's deliveries): AddLane once, then ScheduleLaneAt. Only
//    the lane's earliest entry sits in the heap.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <utility>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"
#include "src/util/check.h"
#include "src/util/time.h"

namespace bundler {

class Simulator {
 public:
  // The simulator itself is trace component 0 (kind "sim").
  Simulator() { sim_comp_ = trace_.RegisterComponent("sim", "sim"); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  // Schedule `cb` to run after `delay` (>= 0) from now. Templated so the
  // callable is constructed straight into the event slot (no intermediate
  // callback object on the hot path).
  template <typename F>
  EventId Schedule(TimeDelta delay, F&& cb) {
    BUNDLER_CHECK(delay >= TimeDelta::Zero());
    return queue_.Push(now_ + delay, std::forward<F>(cb));
  }
  // Schedule `cb` at absolute time `t` (>= now).
  template <typename F>
  EventId ScheduleAt(TimePoint t, F&& cb) {
    BUNDLER_CHECK_MSG(t >= now_, "scheduling into the past: %s < %s",
                      t.ToString().c_str(), now_.ToString().c_str());
    return queue_.Push(t, std::forward<F>(cb));
  }
  // Schedule `cb` every `period`, first firing after `first_delay`. The
  // returned id stays valid across firings; Cancel stops the timer — dropping
  // it makes the timer unstoppable, hence [[nodiscard]]. (Schedule/ScheduleAt
  // stay discardable on purpose: fire-and-forget one-shots are the hot-path
  // idiom, and a dropped one-shot id is merely an un-cancellable event.)
  [[nodiscard]] EventId SchedulePeriodic(TimeDelta first_delay,
                                         TimeDelta period,
                                         EventQueue::Callback cb);
  // Event lanes (EventQueue::AddLane): `cb` runs once per ScheduleLaneAt, in
  // push order. A lane's entries cannot be cancelled.
  [[nodiscard]] EventQueue::LaneId AddLane(EventQueue::Callback cb) {
    return queue_.AddLane(std::move(cb));
  }
  // Runs the lane's callback at `t` (>= now, and no earlier than the lane's
  // last entry).
  void ScheduleLaneAt(EventQueue::LaneId lane, TimePoint t) {
    BUNDLER_CHECK_MSG(t >= now_, "scheduling into the past: %s < %s",
                      t.ToString().c_str(), now_.ToString().c_str());
    queue_.PushLane(lane, t);
  }
  // Cancel-if-pending. Unlike EventQueue::Cancel this is NOT [[nodiscard]]:
  // "stop it if it has not fired yet" is a sanctioned idiom here (timers race
  // with the events they guard), and the bool is informational.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Run until the queue drains or the clock would pass `until`.
  void RunUntil(TimePoint until);
  // Run until the queue drains completely.
  void RunAll();
  // Stop an in-progress Run* after the current event returns.
  void Stop() { stopped_ = true; }

  // --- Parallel-DES hooks (src/sim/shard_runner) -------------------------
  // A sharded run drives each group's simulator one event at a time, merging
  // boundary arrivals from peer shards between events. These are also usable
  // standalone (tests).
  bool HasPending() const { return !queue_.Empty(); }
  // Time of the earliest pending event; callers must ensure HasPending().
  TimePoint PeekNextTime() const { return queue_.NextTime(); }
  // Advances the clock to the earliest pending event and runs it (FIFO among
  // events at one instant); callers must ensure HasPending().
  void DispatchNext();
  // Runs `f` as a synthetic event at `t` (>= now): advances the clock and
  // counts one dispatched event. This is how a boundary packet arrival is
  // delivered — it replaces the delivery the link would have put on its lane
  // in a single-simulator run, so events_dispatched summed across shards
  // matches the unsharded count (up to arrivals that tie across channels;
  // see shard_runner.h).
  template <typename F>
  void RunInline(TimePoint t, F&& f) {
    BUNDLER_CHECK(t >= now_);
    now_ = t;
    ++events_dispatched_;
    f();
  }
  // Advances the clock without dispatching (end-of-round catch-up, mirroring
  // RunUntil's final `now_ = until`). No-op when already past `t`.
  void FastForwardTo(TimePoint t) {
    if (now_ < t) {
      now_ = t;
    }
  }

  uint64_t events_dispatched() const { return events_dispatched_; }

  // Observability: the per-simulator flight recorder and counter registry.
  // Components reach them through their Simulator* and register at
  // construction time; see src/obs/.
  obs::Tracer& trace() { return trace_; }
  const obs::Tracer& trace() const { return trace_; }
  obs::CounterRegistry& counters() { return counters_; }
  const obs::CounterRegistry& counters() const { return counters_; }
  uint32_t sim_comp() const { return sim_comp_; }

  // Event-queue profiling (peak pending events).
  const EventQueue::Profile& queue_profile() const { return queue_.profile(); }

 private:
  TimePoint now_;
  EventQueue queue_;
  bool stopped_ = false;
  uint64_t events_dispatched_ = 0;
  obs::Tracer trace_;
  obs::CounterRegistry counters_;
  uint32_t sim_comp_ = 0;
};

}  // namespace bundler

#endif  // SRC_SIM_SIMULATOR_H_
