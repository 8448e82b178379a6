// Unit tests for the discrete-event simulator core: ordering, cancellation
// (including mid-dispatch), reschedule-in-place, periodic timers, event
// lanes, the engine's and a warm link hop's zero-allocation guarantee, a
// link's event count per hop and its ties at the end of serialization, the
// link's rate check, and InlineFunction, the move-only callable every event
// and stored callback rides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/qdisc/fifo.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulator.h"
#include "tests/alloc_counter.h"

namespace bundler {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  (void)q.Push(TimePoint::FromNanos(30), [&]() { order.push_back(3); });
  (void)q.Push(TimePoint::FromNanos(10), [&]() { order.push_back(1); });
  (void)q.Push(TimePoint::FromNanos(20), [&]() { order.push_back(2); });
  while (!q.Empty()) {
    q.DispatchHead();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)q.Push(TimePoint::FromNanos(5), [&order, i]() { order.push_back(i); });
  }
  while (!q.Empty()) {
    q.DispatchHead();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Push(TimePoint::FromNanos(1), [&]() { ++fired; });
  (void)q.Push(TimePoint::FromNanos(2), [&]() { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  while (!q.Empty()) {
    q.DispatchHead();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(123456));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_TRUE(q.Empty());
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(TimeDelta::Millis(5), [&]() { seen = sim.now(); });
  sim.RunAll();
  EXPECT_EQ(seen, TimePoint::Zero() + TimeDelta::Millis(5));
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(TimeDelta::Millis(5), [&]() { ++fired; });
  sim.Schedule(TimeDelta::Millis(15), [&]() { ++fired; });
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::Zero() + TimeDelta::Millis(10));
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(20));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> tick = [&]() {
    times.push_back(sim.now().ToSeconds());
    if (times.size() < 5) {
      sim.Schedule(TimeDelta::Seconds(1), tick);
    }
  };
  sim.Schedule(TimeDelta::Seconds(1), tick);
  sim.RunAll();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 5.0);
}

TEST(SimulatorTest, StopHaltsDispatch) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(TimeDelta::Millis(1), [&]() {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(TimeDelta::Millis(2), [&]() { ++fired; });
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelPreventsCallback) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(TimeDelta::Millis(1), [&]() { ++fired; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, ConstEmptyAndNextTime) {
  EventQueue q;
  const EventQueue& cq = q;  // the inspection API must be genuinely const
  EXPECT_TRUE(cq.Empty());
  (void)q.Push(TimePoint::FromNanos(7), []() {});
  EXPECT_FALSE(cq.Empty());
  EXPECT_EQ(cq.NextTime(), TimePoint::FromNanos(7));
}

TEST(EventQueueTest, CancelRemovesEagerly) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.Push(TimePoint::FromNanos(i), []() {}));
  }
  // No tombstones: cancelled events leave the heap immediately.
  for (int i = 0; i < 8; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[i]));
  }
  EXPECT_EQ(q.PendingForTest(), 4u);
  EXPECT_FALSE(q.Cancel(ids[0]));  // stale id: generation mismatch
}

TEST(EventQueueTest, StaleIdAfterSlotReuseIsNoop) {
  EventQueue q;
  EventId first = q.Push(TimePoint::FromNanos(1), []() {});
  ASSERT_TRUE(q.Cancel(first));
  // The freed slot is recycled; the old id must not cancel the new event.
  int fired = 0;
  (void)q.Push(TimePoint::FromNanos(2), [&]() { ++fired; });
  EXPECT_FALSE(q.Cancel(first));
  while (!q.Empty()) {
    q.DispatchHead();
  }
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelDuringDispatchOfSameInstantEvent) {
  Simulator sim;
  int fired = 0;
  bool last_fired = false;
  EventId victim = kInvalidEventId;
  // Three events at the same instant; the first cancels the second while the
  // dispatch loop is already inside that instant. The third must still fire.
  sim.Schedule(TimeDelta::Millis(1), [&]() { sim.Cancel(victim); });
  victim = sim.Schedule(TimeDelta::Millis(1), [&]() { ++fired; });
  sim.Schedule(TimeDelta::Millis(1), [&]() { last_fired = true; });
  sim.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(last_fired);
  EXPECT_EQ(sim.events_dispatched(), 2u);
}

TEST(SimulatorTest, PeriodicFiresAtFixedCadence) {
  Simulator sim;
  std::vector<int64_t> fire_ns;
  EventId id = sim.SchedulePeriodic(TimeDelta::Millis(3), TimeDelta::Millis(10),
                                    [&]() { fire_ns.push_back(sim.now().nanos()); });
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(40));
  ASSERT_EQ(fire_ns.size(), 4u);  // 3, 13, 23, 33 ms
  EXPECT_EQ(fire_ns[0], TimeDelta::Millis(3).nanos());
  EXPECT_EQ(fire_ns[3], TimeDelta::Millis(33).nanos());
  // The id stays valid across firings; cancelling stops the timer.
  sim.Cancel(id);
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(100));
  EXPECT_EQ(fire_ns.size(), 4u);
}

TEST(SimulatorTest, PeriodicCancelFromOwnCallback) {
  Simulator sim;
  int fired = 0;
  EventId id = kInvalidEventId;
  id = sim.SchedulePeriodic(TimeDelta::Millis(1), TimeDelta::Millis(1), [&]() {
    if (++fired == 3) {
      sim.Cancel(id);  // cancellation during our own dispatch
    }
  });
  sim.RunAll();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, PeriodicRearmsBeforeInvoking) {
  // An event the periodic callback schedules for exactly the next firing
  // instant must dispatch *after* the next tick: the engine re-arms the
  // timer before invoking the callback, like the classic "re-schedule
  // yourself first" idiom the layers used to hand-roll.
  Simulator sim;
  std::vector<char> order;
  bool planted = false;
  EventId id = sim.SchedulePeriodic(TimeDelta::Millis(1), TimeDelta::Millis(1), [&]() {
    order.push_back('p');
    if (!planted) {
      planted = true;
      sim.Schedule(TimeDelta::Millis(1), [&]() { order.push_back('o'); });
    }
    if (order.size() >= 3) {
      sim.Cancel(id);
    }
  });
  sim.RunAll();
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], 'p');
  EXPECT_EQ(order[1], 'p');  // tick at 2 ms precedes the one-shot planted at 2 ms
  EXPECT_EQ(order[2], 'o');
}

// Randomized mirror test: the queue must dispatch exactly the live events in
// (time, FIFO) order under interleaved push / cancel / move (cancel, then
// push at the new time), matching a naive reference model.
TEST(EventQueueTest, RandomizedOrderMatchesReferenceModel) {
  struct Ref {
    int64_t time_ns;
    uint64_t order;  // monotonically increasing push stamp
    int label;
  };
  std::mt19937_64 rng(20260729);
  EventQueue q;
  std::vector<int> fired;
  std::vector<Ref> live;
  std::vector<std::pair<EventId, size_t>> pending;  // id -> index into live
  uint64_t stamp = 0;
  int next_label = 0;
  for (int op = 0; op < 4000; ++op) {
    uint64_t pick = rng() % 10;
    if (pick < 6 || pending.empty()) {
      int64_t t = static_cast<int64_t>(rng() % 64);  // dense times force ties
      int label = next_label++;
      EventId id = q.Push(TimePoint::FromNanos(t),
                          [&fired, label]() { fired.push_back(label); });
      live.push_back(Ref{t, ++stamp, label});
      pending.emplace_back(id, live.size() - 1);
    } else if (pick < 8) {
      size_t victim = rng() % pending.size();
      ASSERT_TRUE(q.Cancel(pending[victim].first));
      live[pending[victim].second].label = -1;  // tombstone in the model only
      pending.erase(pending.begin() + victim);
    } else {
      // Move: the victim's label fires at the new time, behind every event
      // already queued there.
      size_t victim = rng() % pending.size();
      int64_t t = static_cast<int64_t>(rng() % 64);
      Ref& ref = live[pending[victim].second];
      const int label = ref.label;
      ASSERT_TRUE(q.Cancel(pending[victim].first));
      pending[victim].first = q.Push(TimePoint::FromNanos(t),
                                     [&fired, label]() { fired.push_back(label); });
      ref.time_ns = t;
      ref.order = ++stamp;
    }
  }
  while (!q.Empty()) {
    q.DispatchHead();
  }
  std::vector<Ref> expected;
  for (const Ref& r : live) {
    if (r.label >= 0) {
      expected.push_back(r);
    }
  }
  std::sort(expected.begin(), expected.end(), [](const Ref& a, const Ref& b) {
    return a.time_ns != b.time_ns ? a.time_ns < b.time_ns : a.order < b.order;
  });
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].label) << "at dispatch " << i;
  }
}

// Lane mirror test: lane entries must dispatch exactly as plain pushes made
// at the same moments would. Two queues see the same interleaving of plain
// pushes, cancels, moves, dispatches and pushes onto three lanes (each
// lane non-decreasing in time, dense times forcing ties); in the reference
// queue every lane entry is a plain push. Dispatch order, NextTime, the
// pending count and the pending profile must match after every operation.
TEST(EventQueueTest, LaneEntriesDispatchLikePlainPushesMadeAtTheSameMoment) {
  std::mt19937_64 rng(20261019);
  EventQueue laned;
  EventQueue ref;
  std::vector<int> laned_fired;
  std::vector<int> ref_fired;
  constexpr int kLanes = 3;
  // Labels of each lane's pending entries, oldest first: the lane's one
  // callback fires them in push order.
  std::vector<std::deque<int>> lane_labels(kLanes);
  std::vector<EventQueue::LaneId> lanes;
  std::vector<int64_t> lane_last(kLanes, 0);
  for (int l = 0; l < kLanes; ++l) {
    lanes.push_back(laned.AddLane([&laned_fired, &lane_labels, l]() {
      laned_fired.push_back(lane_labels[l].front());
      lane_labels[l].pop_front();
    }));
  }
  struct Plain {
    EventId laned;
    EventId ref;
  };
  std::vector<Plain> plain;
  int next_label = 0;
  int64_t now = 0;  // time of the last dispatch; no push is earlier
  for (int op = 0; op < 6000; ++op) {
    const uint64_t pick = rng() % 12;
    if (pick < 3) {
      const TimePoint t = TimePoint::FromNanos(now + static_cast<int64_t>(rng() % 32));
      const int label = next_label++;
      plain.push_back(Plain{laned.Push(t, [&laned_fired, label]() { laned_fired.push_back(label); }),
                            ref.Push(t, [&ref_fired, label]() { ref_fired.push_back(label); })});
    } else if (pick < 7) {
      const int l = static_cast<int>(rng() % kLanes);
      lane_last[l] = std::max(lane_last[l], now) + static_cast<int64_t>(rng() % 6);
      const TimePoint t = TimePoint::FromNanos(lane_last[l]);
      const int label = next_label++;
      lane_labels[l].push_back(label);
      laned.PushLane(lanes[l], t);
      (void)ref.Push(t, [&ref_fired, label]() { ref_fired.push_back(label); });
    } else if (pick < 8 && !plain.empty()) {
      // Either side may already have fired it; both must agree.
      const Plain& victim = plain[rng() % plain.size()];
      EXPECT_EQ(laned.Cancel(victim.laned), ref.Cancel(victim.ref));
    } else if (pick < 9 && !plain.empty()) {
      // Move: cancel (a no-op on both sides if it already fired), then push
      // at the new time.
      Plain& victim = plain[rng() % plain.size()];
      const TimePoint t = TimePoint::FromNanos(now + static_cast<int64_t>(rng() % 32));
      EXPECT_EQ(laned.Cancel(victim.laned), ref.Cancel(victim.ref));
      const int label = next_label++;
      victim = Plain{laned.Push(t, [&laned_fired, label]() { laned_fired.push_back(label); }),
                     ref.Push(t, [&ref_fired, label]() { ref_fired.push_back(label); })};
    } else if (!ref.Empty()) {
      now = ref.NextTime().nanos();
      laned.DispatchHead();
      ref.DispatchHead();
    }
    ASSERT_EQ(laned.Empty(), ref.Empty()) << "after op " << op;
    if (!ref.Empty()) {
      ASSERT_EQ(laned.NextTime(), ref.NextTime()) << "after op " << op;
    }
    ASSERT_EQ(laned.PendingForTest(), ref.PendingForTest()) << "after op " << op;
    ASSERT_EQ(laned_fired, ref_fired) << "after op " << op;
  }
  while (!ref.Empty()) {
    ASSERT_EQ(laned.NextTime(), ref.NextTime());
    laned.DispatchHead();
    ref.DispatchHead();
  }
  EXPECT_TRUE(laned.Empty());
  EXPECT_EQ(laned_fired, ref_fired);
  EXPECT_EQ(laned.profile().max_heap, ref.profile().max_heap);
  EXPECT_GT(ref_fired.size(), 2000u);
}

TEST(EventQueueDeathTest, LanePushEarlierThanItsLastEntryDies) {
  EXPECT_DEATH(
      {
        EventQueue q;
        const EventQueue::LaneId lane = q.AddLane([]() {});
        q.PushLane(lane, TimePoint::FromNanos(10));
        q.PushLane(lane, TimePoint::FromNanos(10));  // a tie is fine
        q.PushLane(lane, TimePoint::FromNanos(9));
      },
      "earlier than its last entry");
}

TEST(SimulatorTest, SteadyStateSchedulingDoesNotAllocate) {
  Simulator sim;
  // Warm-up: grow the slot pool and heap arrays to the working-set size and
  // churn through them once so the free list is populated.
  constexpr int kPending = 512;
  for (int i = 0; i < kPending; ++i) {
    sim.Schedule(TimeDelta::Micros(i + 1), []() {});
  }
  sim.RunAll();

  uint64_t before = HeapAllocs();
  // Steady state: a periodic timer, a long-lived timer moved each round by
  // cancel plus schedule, and a block of one-shots per round — all with
  // inline captures. None of this may allocate.
  int chain = 0;
  EventId movable = sim.Schedule(TimeDelta::Seconds(3600), []() {});
  EventId periodic =
      sim.SchedulePeriodic(TimeDelta::Micros(50), TimeDelta::Micros(50), [&]() {
        if (++chain <= 100) {
          EXPECT_TRUE(sim.Cancel(movable));
          movable = sim.Schedule(TimeDelta::Seconds(3600), []() {});
          for (int i = 0; i < kPending / 2; ++i) {
            sim.Schedule(TimeDelta::Micros(1 + i % 7), []() {});
          }
        } else {
          sim.Cancel(periodic);
          sim.Cancel(movable);
        }
      });
  sim.RunAll();
  EXPECT_GT(chain, 100);
  EXPECT_EQ(HeapAllocs() - before, 0u)
      << "the schedule/cancel/dispatch hot path must not touch the heap";

  // Cancel-heavy churn, the pattern of RTO timers and shaper rate changes:
  // 4,096 timers stay pending a second ahead, and each op cancels one, arms
  // its replacement, schedules a one-shot and dispatches it. The first pass
  // grows the slot pool to the working set; the second must not allocate.
  std::vector<EventId> timers(4096);
  for (EventId& timer : timers) {
    timer = sim.Schedule(TimeDelta::Seconds(1), []() {});
  }
  int cancelled = 0;
  int fired = 0;
  auto churn = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      EventId& timer = timers[static_cast<size_t>(i) % timers.size()];
      cancelled += sim.Cancel(timer) ? 1 : 0;
      timer = sim.Schedule(TimeDelta::Seconds(1), []() {});
      sim.Schedule(TimeDelta::Micros(1), [&fired]() { ++fired; });
      sim.DispatchNext();
    }
  };
  churn(1 << 14);
  before = HeapAllocs();
  churn(1 << 16);
  EXPECT_EQ(HeapAllocs() - before, 0u) << "cancel-heavy churn must not touch the heap";
  EXPECT_EQ(cancelled, (1 << 14) + (1 << 16));
  EXPECT_EQ(fired, (1 << 14) + (1 << 16));
}

TEST(SimulatorTest, LinkHopDoesNotAllocateOnceWarm) {
  // A link keeps each packet in its own ring while it serializes and
  // propagates, and delivers through its lane; its events capture only the
  // link. At 100 Mbit/s a 1000-byte packet serializes in 80 us, so a burst
  // keeps ~125 packets propagating across the 10 ms delay at once.
  Simulator sim;
  SinkHandler sink;
  Link link(&sim, "hop", Rate::Mbps(100), TimeDelta::Millis(10),
            std::make_unique<DropTailFifo>(1 << 20), &sink);
  FlowKey key;
  key.src = MakeAddress(1, 1);
  key.dst = MakeAddress(2, 1);
  constexpr int kBurst = 256;
  auto burst = [&]() {
    for (int i = 0; i < kBurst; ++i) {
      link.HandlePacket(MakeDataPacket(/*flow_id=*/1, key, /*seq=*/i, 1000));
    }
    sim.RunAll();
  };
  // Warm-up: grows the queue's ring, the link's in-flight ring, its lane and
  // the event slots to the burst's peak.
  burst();
  const uint64_t before = HeapAllocs();
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    burst();
  }
  EXPECT_EQ(HeapAllocs() - before, 0u) << "a warm link hop must not touch the heap";
  EXPECT_EQ(sink.packets(), static_cast<uint64_t>((kRounds + 1) * kBurst));
  EXPECT_GE(sim.queue_profile().max_heap, 100u) << "packets were not in flight together";
}

// --- A link hop costs one event: deliveries ride the link's lane, and a
// transmit-done exists only while a packet waits ---

// 1000 B at 100 Mbit/s serializes in 80 us.
constexpr TimeDelta kHopTx = TimeDelta::Micros(80);
constexpr TimeDelta kHopDelay = TimeDelta::Millis(1);

// Records each delivered packet's seq and arrival time.
struct Arrivals {
  std::vector<int64_t> seqs;
  std::vector<TimePoint> times;
};

struct HopRig {
  HopRig()
      : sink([this](Packet p) {
          got.seqs.push_back(p.seq);
          got.times.push_back(sim.now());
        }),
        link(&sim, "hop", Rate::Mbps(100), kHopDelay, std::make_unique<DropTailFifo>(1 << 20),
             &sink) {
    key.src = MakeAddress(1, 1);
    key.dst = MakeAddress(2, 1);
  }
  void Send(int64_t seq) { link.HandlePacket(MakeDataPacket(/*flow_id=*/1, key, seq, 1000)); }

  Simulator sim;
  Arrivals got;
  LambdaHandler sink;
  Link link;
  FlowKey key;
};

TimePoint AtMicros(int64_t us) { return TimePoint::Zero() + TimeDelta::Micros(us); }

TEST(LinkTest, SpacedPacketsCostOneEventEach) {
  // 100 us apart, each packet finds the link free: one delivery each, and no
  // transmit-done.
  HopRig rig;
  constexpr int kN = 50;
  for (int i = 0; i < kN; ++i) {
    rig.sim.RunUntil(AtMicros(100 * i));
    rig.Send(i);
  }
  rig.sim.RunAll();
  ASSERT_EQ(rig.got.seqs.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(rig.got.times[static_cast<size_t>(i)], AtMicros(100 * i) + kHopTx + kHopDelay);
  }
  EXPECT_EQ(rig.sim.events_dispatched(), static_cast<uint64_t>(kN));
}

TEST(LinkTest, BurstCostsADeliveryEachAndATransmitDoneForEachWaiter) {
  // A same-instant burst: every packet but the first waits, so N deliveries
  // and N-1 transmit-dones, back to back.
  HopRig rig;
  constexpr int kN = 50;
  for (int i = 0; i < kN; ++i) {
    rig.Send(i);
  }
  rig.sim.RunAll();
  ASSERT_EQ(rig.got.seqs.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(rig.got.seqs[static_cast<size_t>(i)], i);
    EXPECT_EQ(rig.got.times[static_cast<size_t>(i)], TimePoint::Zero() + kHopTx * (i + 1) + kHopDelay);
  }
  EXPECT_EQ(rig.sim.events_dispatched(), static_cast<uint64_t>(2 * kN - 1));
}

TEST(LinkTest, ArrivalExactlyAtTxEndWithNoWaiterStartsAtOnce) {
  HopRig rig;
  rig.Send(0);
  rig.sim.RunUntil(TimePoint::Zero() + kHopTx);  // nothing is due by then
  rig.Send(1);  // the link is free: no transmit-done, no wait
  rig.sim.RunAll();
  ASSERT_EQ(rig.got.seqs, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(rig.got.times[0], TimePoint::Zero() + kHopTx + kHopDelay);
  EXPECT_EQ(rig.got.times[1], TimePoint::Zero() + kHopTx * 2 + kHopDelay);
  EXPECT_EQ(rig.sim.events_dispatched(), 2u);
}

TEST(LinkTest, ArrivalAtTxEndQueuesBehindTheWaiter) {
  // Packet 2 arrives at packet 0's tx_end, in an event that runs before the
  // transmit-done due then: packet 1, already waiting, still goes first.
  HopRig rig;
  rig.sim.ScheduleAt(TimePoint::Zero() + kHopTx, [&rig]() { rig.Send(2); });
  rig.Send(0);
  rig.Send(1);
  rig.sim.RunAll();
  ASSERT_EQ(rig.got.seqs, (std::vector<int64_t>{0, 1, 2}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.got.times[static_cast<size_t>(i)], TimePoint::Zero() + kHopTx * (i + 1) + kHopDelay);
  }
  // The test's own event, three deliveries and two transmit-dones.
  EXPECT_EQ(rig.sim.events_dispatched(), 6u);
}

TEST(LinkTest, TxPktsCountsAPacketStillSerializingWhenTheRunStops) {
  HopRig rig;
  rig.Send(0);
  rig.sim.RunUntil(TimePoint::Zero() + kHopTx / 2);
  EXPECT_EQ(rig.link.stats().packets_sent, 1u);
  EXPECT_EQ(rig.link.stats().bytes_sent, 1000u);
  EXPECT_TRUE(rig.got.seqs.empty());
}

TEST(LinkDeathTest, RateThatCannotSerializeAnMtuDies) {
  // Zero, and a positive rate so slow that an MTU's serialization time
  // saturates to infinity, both die at construction, before any packet.
  for (Rate rate : {Rate::Zero(), Rate::BitsPerSec(1e-9)}) {
    EXPECT_DEATH(
        {
          Simulator sim;
          SinkHandler sink;
          Link link(&sim, "stuck", rate, TimeDelta::Millis(1),
                    std::make_unique<DropTailFifo>(1 << 20), &sink);
        },
        "link 'stuck' needs a rate that serializes an MTU");
  }
}

// --- One-at-a-time dispatch: the contract ShardRunner::Step drives through
// HasPending, PeekNextTime and DispatchNext ---

TEST(SimulatorTest, DispatchNextRunsOneEventInFifoOrder) {
  Simulator sim;
  std::vector<int> fired;
  const TimePoint t5 = TimePoint::Zero() + TimeDelta::Micros(5);
  const TimePoint t7 = TimePoint::Zero() + TimeDelta::Micros(7);
  sim.Schedule(TimeDelta::Micros(5), [&fired]() { fired.push_back(1); });
  sim.Schedule(TimeDelta::Micros(5), [&fired]() { fired.push_back(2); });
  sim.Schedule(TimeDelta::Micros(7), [&fired]() { fired.push_back(4); });
  sim.Schedule(TimeDelta::Micros(5), [&fired]() { fired.push_back(3); });
  ASSERT_TRUE(sim.HasPending());
  EXPECT_EQ(sim.PeekNextTime(), t5);
  sim.DispatchNext();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), t5);
  EXPECT_EQ(sim.events_dispatched(), 1u);
  EXPECT_EQ(sim.PeekNextTime(), t5);
  sim.DispatchNext();
  sim.DispatchNext();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), t5);
  EXPECT_EQ(sim.PeekNextTime(), t7);
  sim.DispatchNext();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), t7);
  EXPECT_EQ(sim.events_dispatched(), 4u);
  EXPECT_FALSE(sim.HasPending());
}

TEST(SimulatorTest, ZeroDelayEventRunsAfterQueuedSameInstantPeers) {
  Simulator sim;
  std::vector<int> fired;
  TimePoint zero_delay_at;
  sim.Schedule(TimeDelta::Micros(5), [&]() {
    fired.push_back(1);
    sim.Schedule(TimeDelta::Zero(), [&]() {
      fired.push_back(3);
      zero_delay_at = sim.now();
    });
  });
  sim.Schedule(TimeDelta::Micros(5), [&fired]() { fired.push_back(2); });
  sim.Schedule(TimeDelta::Micros(6), [&fired]() { fired.push_back(4); });
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(zero_delay_at, TimePoint::Zero() + TimeDelta::Micros(5));
}

TEST(SimulatorTest, PeerRescheduledFromCallbackRunsBehindLaterQueuedEvents) {
  Simulator sim;
  std::vector<int> fired;
  EventId moved;
  auto second = [&fired]() { fired.push_back(2); };
  sim.Schedule(TimeDelta::Micros(5), [&]() {
    fired.push_back(1);
    EXPECT_TRUE(sim.Cancel(moved));
    sim.ScheduleAt(TimePoint::Zero() + TimeDelta::Micros(6), second);
  });
  moved = sim.Schedule(TimeDelta::Micros(5), second);
  sim.Schedule(TimeDelta::Micros(6), [&fired]() { fired.push_back(3); });
  sim.RunAll();
  // The moved event is ordered like a brand-new push at 6us, behind the
  // event that was already queued there.
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.events_dispatched(), 3u);
}

TEST(SimulatorTest, StopMidInstantResumesInFifoOrder) {
  // Five events at one instant, then a later one. With `stop_at` = 1 the 2nd
  // event stops the run.
  auto build = [](Simulator* sim, std::vector<int>* fired, int stop_at) {
    for (int i = 0; i < 5; ++i) {
      sim->Schedule(TimeDelta::Nanos(100), [sim, fired, i, stop_at]() {
        fired->push_back(i);
        if (i == stop_at) {
          sim->Stop();
        }
      });
    }
    sim->Schedule(TimeDelta::Nanos(200), [fired]() { fired->push_back(99); });
  };
  Simulator sim;
  std::vector<int> fired;
  build(&sim, &fired, 1);
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.events_dispatched(), 2u);
  // Resuming fires the rest of the instant in FIFO order, ahead of the later
  // event, and the run ends exactly where an uninterrupted one does.
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 99}));
  Simulator uninterrupted;
  std::vector<int> uninterrupted_fired;
  build(&uninterrupted, &uninterrupted_fired, -1);
  uninterrupted.RunAll();
  EXPECT_EQ(fired, uninterrupted_fired);
  EXPECT_EQ(sim.events_dispatched(), uninterrupted.events_dispatched());
}

TEST(SimulatorTest, DispatchNextLoopMatchesRunAll) {
  // The same randomized schedule driven by a DispatchNext loop and by RunAll
  // must fire in the same order and report the same dispatch count.
  auto build = [](Simulator* sim, std::vector<int>* fired) {
    std::mt19937_64 rng(20260808);
    for (int i = 0; i < 300; ++i) {
      const auto t = TimeDelta::Micros(static_cast<int64_t>(rng() % 16));
      sim->Schedule(t, [fired, i]() { fired->push_back(i); });
    }
  };
  Simulator stepped;
  std::vector<int> stepped_fired;
  build(&stepped, &stepped_fired);
  while (stepped.HasPending()) {
    stepped.DispatchNext();
  }
  Simulator serial;
  std::vector<int> serial_fired;
  build(&serial, &serial_fired);
  serial.RunAll();
  EXPECT_EQ(stepped_fired, serial_fired);
  EXPECT_EQ(stepped.events_dispatched(), serial.events_dispatched());
}

// --- InlineFunction: the one move-only callable ---

static_assert(!std::is_copy_constructible_v<InlineFunction<void()>>);
// The event slot's callback: 32 bytes of capture plus the invoke and manage
// pointers. Growing it widens every pooled slot.
static_assert(sizeof(EventQueue::Callback) == 48);

// A move-only capture that counts its live instances, so a leaked or doubly
// destroyed capture shows up as a nonzero balance.
struct Tracked {
  struct Counts {
    int live = 0;
    int moves = 0;
    int calls = 0;
  };
  explicit Tracked(Counts* c) : counts(c) { ++counts->live; }
  Tracked(Tracked&& o) noexcept : counts(o.counts) {
    ++counts->live;
    ++counts->moves;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() { --counts->live; }
  void operator()() { ++counts->calls; }

  Counts* counts;
};

TEST(InlineFunctionTest, NonTrivialCaptureIsMovedAndDestroyedOnce) {
  Tracked::Counts c;
  {
    InlineFunction<void()> a = Tracked(&c);
    EXPECT_EQ(c.live, 1);  // the temporary is gone, the stored one remains
    EXPECT_EQ(c.moves, 1);

    InlineFunction<void()> b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
    ASSERT_TRUE(b);
    EXPECT_EQ(c.live, 1);
    EXPECT_EQ(c.moves, 2);
    b();
    EXPECT_EQ(c.calls, 1);

    // Move-assigning over a live callable destroys the old capture first.
    Tracked::Counts old;
    InlineFunction<void()> d = Tracked(&old);
    d = std::move(b);
    EXPECT_EQ(old.live, 0);
    EXPECT_EQ(old.calls, 0);
    EXPECT_EQ(c.live, 1);
    EXPECT_EQ(c.moves, 3);
    d();
    EXPECT_EQ(c.calls, 2);

    // Emplace replaces a live callable the same way.
    Tracked::Counts next;
    d.Emplace(Tracked(&next));
    EXPECT_EQ(c.live, 0);
    EXPECT_EQ(next.live, 1);

    d.Reset();
    EXPECT_FALSE(d);
    EXPECT_EQ(next.live, 0);
    d.Reset();  // idempotent
    EXPECT_EQ(next.live, 0);
  }
  EXPECT_EQ(c.live, 0);
  EXPECT_EQ(c.calls, 2);
}

TEST(InlineFunctionTest, TrivialCaptureKeepsStateThroughMemcpyMove) {
  int out = 0;
  int vals[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  auto fn = [vals, out_ptr = &out]() {
    for (int v : vals) {
      *out_ptr = *out_ptr * 10 + v;
    }
  };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  InlineFunction<void()> a = fn;
  InlineFunction<void()> b = std::move(a);
  InlineFunction<void()> c;
  c = std::move(b);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(out, 12345678);
}

TEST(InlineFunctionTest, CapturelessCallableMovesAndCalls) {
  // An empty lambda writes none of the inline storage that MoveFrom's
  // fixed-size memcpy copies; Emplace zeroes it, so this move reads only
  // written bytes and the -Wall -Wextra build compiles it without a warning.
  static uint32_t seen_bytes = 0;
  LambdaHandler sink([](Packet p) { seen_bytes += p.size_bytes; });
  LambdaHandler moved = std::move(sink);
  Packet pkt;
  pkt.size_bytes = 1500;
  moved.HandlePacket(std::move(pkt));
  EXPECT_EQ(seen_bytes, 1500u);
}

TEST(InlineFunctionTest, EmptyIsFalse) {
  InlineFunction<int(int)> def;
  InlineFunction<int(int)> null = nullptr;
  EXPECT_FALSE(def);
  EXPECT_FALSE(null);
  InlineFunction<int(int)> set = [](int x) { return x; };
  EXPECT_TRUE(set);
}

TEST(InlineFunctionTest, ForwardsArgumentsAndReturnsValue) {
  InlineFunction<int(int, int)> sub = [](int a, int b) { return a - b; };
  EXPECT_EQ(sub(7, 3), 4);

  // A move-only argument is moved through to the callable.
  std::vector<Packet> kept;
  InlineFunction<uint32_t(Packet)> sink = [&kept](Packet p) {
    uint32_t size = p.size_bytes;
    kept.push_back(std::move(p));
    return size;
  };
  Packet pkt;
  pkt.size_bytes = 321;
  pkt.id = 99;
  EXPECT_EQ(sink(std::move(pkt)), 321u);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].id, 99u);

  InlineFunction<bool(const Packet&)> is_ack = [](const Packet& p) {
    return p.type == PacketType::kAck;
  };
  EXPECT_FALSE(is_ack(kept[0]));
}

TEST(InlineFunctionTest, LargestEventCaptureDoesNotAllocate) {
  // The largest event captures four words and fills the slot: RunWanPath's
  // bulk-flow start event (src/topo/internet.cc).
  struct Payload {
    unsigned char bytes[24];
  };
  int hits = 0;
  Payload payload{};
  payload.bytes[23] = 7;
  auto fn = [payload, hits_ptr = &hits]() { *hits_ptr += payload.bytes[23]; };
  static_assert(sizeof(fn) == EventQueue::Callback::kCapacity);

  uint64_t before = HeapAllocs();
  {
    EventQueue::Callback a = fn;
    EventQueue::Callback b = std::move(a);
    EventQueue::Callback c;
    c = std::move(b);
    c();
    c.Emplace(fn);
    c();
  }
  EXPECT_EQ(HeapAllocs() - before, 0u);
  EXPECT_EQ(hits, 14);
}

}  // namespace
}  // namespace bundler
