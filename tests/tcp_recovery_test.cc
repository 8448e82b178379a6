// Tests for the TCP loss-recovery machinery added for fidelity with the
// Linux stack the paper ran on: SACK scoreboard pipe accounting, RFC 6298
// RTO semantics (timer guards the oldest outstanding segment), lost-
// retransmission detection, PRR transmission bounding, tail loss probes,
// HyStart's delay-based slow-start exit, and a full-window recovery cycle
// that never touches the heap once warm.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/cc/cubic.h"
#include "src/net/link.h"
#include "src/qdisc/fifo.h"
#include "src/sim/simulator.h"
#include "src/transport/endpoint.h"
#include "src/transport/tcp_flow.h"
#include "tests/alloc_counter.h"

namespace bundler {
namespace {

struct LossyNet {
  Simulator sim;
  FlowTable flows;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
  std::unique_ptr<Link> ab;
  std::unique_ptr<Link> ba;
  std::unique_ptr<LambdaHandler> mangler;

  explicit LossyNet(std::function<bool(const Packet&)> drop, Rate rate = Rate::Mbps(48),
                    TimeDelta rtt = TimeDelta::Millis(40),
                    int64_t buffer_bytes = 1 << 21) {
    a = std::make_unique<Host>(&sim, MakeAddress(1, 1), nullptr);
    b = std::make_unique<Host>(&sim, MakeAddress(2, 1), nullptr);
    ba = std::make_unique<Link>(&sim, "ba", rate, rtt / 2,
                                std::make_unique<DropTailFifo>(buffer_bytes), a.get());
    ab = std::make_unique<Link>(&sim, "ab", rate, rtt / 2,
                                std::make_unique<DropTailFifo>(buffer_bytes), b.get());
    if (drop) {
      mangler = std::make_unique<LambdaHandler>([this, drop](Packet p) {
        if (!drop(p)) {
          ab->HandlePacket(std::move(p));
        }
      });
      a->set_egress(mangler.get());
    } else {
      a->set_egress(ab.get());
    }
    b->set_egress(ba.get());
  }

  void RunFor(double seconds) {
    sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(seconds));
  }

  // A completed sender has freed itself, so finite-flow tests read the
  // simulator's aggregate counters (one flow per net).
  uint64_t Retransmits() { return *sim.counters().Counter("tcp.retransmits"); }
  uint64_t Rtos() { return *sim.counters().Counter("tcp.rtos"); }
};

TEST(TcpRecoveryTest, BurstLossRepairedWithinFewRtts) {
  // Drop a contiguous burst of 60 packets; SACK recovery must retransmit the
  // whole hole range in a handful of RTTs, not one hole per RTT (go-back-N
  // would need 60 RTTs = 2.4 s).
  int dropped = 0;
  LossyNet net([&](const Packet& p) {
    if (p.type == PacketType::kData && p.seq >= 100 && p.seq < 160 && !p.retransmit) {
      ++dropped;
      return true;
    }
    return false;
  });
  TcpFlowParams params;
  params.size_bytes = 1'000'000;  // ~690 packets
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.RunFor(10);
  EXPECT_EQ(dropped, 60);
  ASSERT_GT(done.nanos(), 0);
  // Serialization floor ~170 ms; allow the loss episode a few extra RTTs.
  EXPECT_LT(done.ToMillis(), 700.0);
}

TEST(TcpRecoveryTest, LostRetransmissionDetectedWithoutRto) {
  // Drop seq 50 twice: the original and its first retransmission. The SACKs
  // for later originals prove the retransmission died, so the sender repairs
  // it again without waiting for an RTO (timeouts() stays 0).
  int drops_of_50 = 0;
  LossyNet net([&](const Packet& p) {
    if (p.type == PacketType::kData && p.seq == 50 && drops_of_50 < 2) {
      ++drops_of_50;
      return true;
    }
    return false;
  });
  TcpFlowParams params;
  params.size_bytes = 400'000;
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.RunFor(10);
  EXPECT_EQ(drops_of_50, 2);
  ASSERT_GT(done.nanos(), 0);
  EXPECT_EQ(net.Rtos(), 0u)
      << "lost retransmission should be repaired via SACK evidence, not RTO";
  EXPECT_GE(net.Retransmits(), 2u);
}

TEST(TcpRecoveryTest, TailLossRepairedByProbeNotRtoBackoff) {
  // Drop the final segment's first transmission. With no data behind it there
  // are no dupacks; the tail loss probe retransmits it after ~2 SRTT, far
  // sooner than the RTO.
  bool dropped = false;
  const int64_t kTotal = (150'000 + kMssBytes - 1) / kMssBytes;
  LossyNet net([&](const Packet& p) {
    if (p.type == PacketType::kData && p.seq == kTotal - 1 && !p.retransmit &&
        !dropped) {
      dropped = true;
      return true;
    }
    return false;
  });
  TcpFlowParams params;
  params.size_bytes = 150'000;
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.RunFor(10);
  ASSERT_TRUE(dropped);
  ASSERT_GT(done.nanos(), 0);
  EXPECT_GE(net.Retransmits(), 1u);
  EXPECT_EQ(net.Rtos(), 0u) << "the probe, not the RTO, must repair the tail";
  // Transfer floor ~65 ms; TLP adds ~2-4 SRTT. The RTO path would push well
  // past 350 ms (min RTO 200 ms armed after the last ACK).
  EXPECT_LT(done.ToMillis(), 330.0);
}

TEST(TcpRecoveryTest, InflightNeverExceedsWindowUnderRandomLoss) {
  uint64_t count = 0;
  LossyNet net([&](const Packet& p) {
    (void)p;
    return (++count % 23) == 0;  // ~4.3% loss
  });
  TcpFlowParams params;
  params.size_bytes = -1;
  TcpSender* snd = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  // A loss-triggered window reduction leaves inflight above cwnd until the
  // pipe drains (packets cannot be recalled); the invariant is that inflight
  // is never negative and never exceeds what the path + buffer can hold.
  const double kPathCapacityPkts =
      (48e6 * 0.040 / 8 + (1 << 21)) / kMtuBytes;  // BDP + buffer
  for (int i = 1; i <= 100; ++i) {
    net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(100) * i);
    EXPECT_GE(snd->InflightPkts(), 0.0);
    EXPECT_LE(snd->InflightPkts(), 2.0 * kPathCapacityPkts + 10.0);
  }
}

TEST(TcpRecoveryTest, HeavyLossStillCompletes) {
  uint64_t count = 0;
  LossyNet net([&](const Packet& p) {
    (void)p;
    return (++count % 7) == 0;  // ~14% loss on data and everything else
  });
  TcpFlowParams params;
  params.size_bytes = 300'000;
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.RunFor(60);
  EXPECT_GT(done.nanos(), 0);
}

TEST(TcpRecoveryTest, PrrBoundsSendRateDuringRecovery) {
  // A backlogged flow over a severely undersized buffer loses constantly.
  // With PRR, the long-run send rate cannot exceed the bottleneck by much:
  // without it, pipe turnover lets the sender blast ~2x the capacity.
  LossyNet net(nullptr, Rate::Mbps(24), TimeDelta::Millis(40),
               /*buffer=*/8 * kMtuBytes);
  TcpFlowParams params;
  params.size_bytes = -1;
  TcpSender* snd = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  net.RunFor(20);
  double sent_mbps = static_cast<double>(snd->delivered_bytes() +
                                         static_cast<int64_t>(snd->retransmits()) *
                                             kMtuBytes) *
                     8 / 20 / 1e6;
  EXPECT_LT(sent_mbps, 24.0 * 1.3) << "aggregate send rate must track capacity";
  EXPECT_GT(snd->delivered_bytes(), static_cast<int64_t>(0.5 * 20 * 24e6 / 8));
}

TEST(TcpRecoveryTest, FullWindowRecoveryAllocatesNothingOnceWarm) {
  // A backlogged flow holds a constant 450-packet window over a 480 Mbit/s,
  // 40 ms path that drops every 23rd data packet (~4.3%), so the sender
  // cycles through SACK marking, hole reveals, hole retransmission and
  // lost-retransmit detection at full window, with hundreds of marked
  // segments resident. (An adaptive controller would shrink the window to a
  // handful of packets at this loss rate and leave the scoreboard idle.)
  // Once warm, the scoreboard, the receiver's interval set, the queues and
  // the event engine together allocate nothing.
  uint64_t count = 0;
  LossyNet net([&count](const Packet&) { return ++count % 23 == 0; }, Rate::Mbps(480),
               TimeDelta::Millis(40), /*buffer_bytes=*/1 << 22);
  TcpFlowParams params;
  params.size_bytes = -1;
  params.cc = HostCcType::kConstCwnd;
  TcpSender* snd = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  net.RunFor(2);  // warm-up
  const uint64_t before = HeapAllocs();
  const uint64_t events = net.sim.events_dispatched();
  const uint64_t retransmits = snd->retransmits();
  net.RunFor(12);
  EXPECT_EQ(HeapAllocs() - before, 0u);
  EXPECT_GT(net.sim.events_dispatched() - events, 200'000u);
  EXPECT_GT(snd->retransmits() - retransmits, 4'000u);
}

TEST(HystartTest, ExitsSlowStartOnDelayNotLoss) {
  // Deep buffer: classic slow start would overshoot to fill 4 MB before any
  // loss. HyStart must exit near the BDP instead, long before the window
  // reaches buffer scale.
  LossyNet net(nullptr, Rate::Mbps(48), TimeDelta::Millis(40), /*buffer=*/4 << 20);
  TcpFlowParams params;
  params.size_bytes = -1;
  TcpSender* snd = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  net.RunFor(3);
  EXPECT_EQ(snd->timeouts(), 0u);
  EXPECT_EQ(net.ab->queue()->drops(), 0u) << "no loss should occur before HyStart exits";
  // BDP = 165 packets; buffer would hold ~2800 more. The window must sit in
  // BDP territory, not buffer territory.
  EXPECT_LT(snd->cwnd_pkts(), 700.0);
  EXPECT_GT(snd->cwnd_pkts(), 100.0);
}

TEST(HystartTest, CubicHystartRequiresStandingQueue) {
  // Unit-level: single RTT spikes (micro-bursts) must not exit slow start;
  // only a persistently inflated per-round minimum does.
  Cubic cc;
  TimePoint now;
  AckSample s;
  s.acked_pkts = 1;
  s.rtt_valid = true;
  // 40 rounds at base RTT with occasional 1-sample spikes.
  for (int i = 0; i < 400; ++i) {
    now += TimeDelta::Millis(5);
    s.now = now;
    s.rtt = (i % 17 == 0) ? TimeDelta::Millis(80) : TimeDelta::Millis(40);
    cc.OnAck(s);
  }
  EXPECT_TRUE(cc.in_slow_start()) << "isolated spikes must not trigger HyStart";
  // Now a standing queue: every sample inflated well above the threshold.
  for (int i = 0; i < 400; ++i) {
    now += TimeDelta::Millis(5);
    s.now = now;
    s.rtt = TimeDelta::Millis(52);
    cc.OnAck(s);
  }
  EXPECT_FALSE(cc.in_slow_start());
}

}  // namespace
}  // namespace bundler
