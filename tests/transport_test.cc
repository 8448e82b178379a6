// Tests for the TCP-like transport: completion, throughput limits,
// retransmission under loss and reordering, RTO behavior, backlogged flows,
// a host's hand-off of its site's control traffic, and the UDP ping-pong
// application.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/app/workload.h"
#include "src/net/link.h"
#include "src/qdisc/fifo.h"
#include "src/sim/simulator.h"
#include "src/transport/endpoint.h"
#include "src/transport/tcp_flow.h"
#include "src/transport/udp_pingpong.h"

namespace bundler {
namespace {

// Two hosts joined by symmetric links, with an optional packet mangler on the
// forward path (for loss/reorder injection).
struct TwoHostNet {
  Simulator sim;
  FlowTable flows;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
  std::unique_ptr<Link> ab;
  std::unique_ptr<Link> ba;
  std::unique_ptr<LambdaHandler> mangler;

  explicit TwoHostNet(Rate rate = Rate::Mbps(96), TimeDelta rtt = TimeDelta::Millis(50),
                      std::function<bool(const Packet&)> drop = nullptr,
                      int64_t buffer_bytes = 1 << 22) {
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

  // A completed sender has freed itself, so per-flow results come from the
  // simulator's aggregate counters (one flow per net in these tests).
  uint64_t Retransmits() { return *sim.counters().Counter("tcp.retransmits"); }
};

TEST(TcpFlowTest, ShortFlowCompletesInFewRtts) {
  TwoHostNet net;
  TcpFlowParams params;
  params.size_bytes = 10'000;  // 7 segments: one initial window
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
  EXPECT_GT(done.nanos(), 0);
  // 10 kB inside the initial 10-packet window: ~1 RTT + serialization.
  EXPECT_LT(done.ToMillis(), 2.5 * 50);
}

TEST(TcpFlowTest, LargeFlowSaturatesLink) {
  TwoHostNet net(Rate::Mbps(48), TimeDelta::Millis(20));
  TcpFlowParams params;
  params.size_bytes = 12'000'000;  // 12 MB at 48 Mbit/s = ~2 s
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(10));
  ASSERT_GT(done.nanos(), 0);
  double goodput_mbps = 12'000'000 * 8 / done.ToSeconds() / 1e6;
  EXPECT_GT(goodput_mbps, 0.8 * 48);
  // The sender completed too: receiver, sender handle and connection handed
  // their blocks back.
  EXPECT_EQ(net.flows.size(), 0u);
  EXPECT_EQ(net.flows.releases(), 3u);
}

// A created flow is a sender handle without a connection until Start():
// every transport accessor reads zero (false), and the source host's demux
// holds no entry for it.
TEST(TcpFlowTest, AccessorsReadZeroBeforeStart) {
  TwoHostNet net;
  TcpFlowParams params;
  params.size_bytes = 100'000;
  TcpSender* snd = CreateTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  EXPECT_FALSE(snd->complete());
  EXPECT_EQ(snd->cwnd_pkts(), 0.0);
  EXPECT_EQ(snd->InflightPkts(), 0.0);
  EXPECT_EQ(snd->total_pkts(), 0);
  EXPECT_EQ(snd->delivered_bytes(), 0);
  EXPECT_EQ(snd->retransmits(), 0u);
  EXPECT_EQ(snd->timeouts(), 0u);
  EXPECT_TRUE(snd->srtt().IsZero());
  EXPECT_EQ(net.a->registered_flows(), 0u);
  EXPECT_EQ(net.b->registered_flows(), 1u) << "the receiver is eager";
  EXPECT_EQ(net.flows.size(), 2u);

  snd->Start();
  EXPECT_EQ(net.a->registered_flows(), 1u);
  EXPECT_EQ(net.flows.size(), 3u);
  EXPECT_EQ(snd->total_pkts(), (100'000 + kMssBytes - 1) / kMssBytes);
  EXPECT_GT(snd->cwnd_pkts(), 0.0);
  EXPECT_EQ(snd->InflightPkts(), snd->cwnd_pkts()) << "the first window left at once";
  EXPECT_FALSE(snd->complete());
}

TEST(TcpFlowTest, RecoversFromSingleLoss) {
  int dropped = 0;
  TwoHostNet net(Rate::Mbps(96), TimeDelta::Millis(50), [&](const Packet& p) {
    // Drop exactly one data packet mid-flow.
    if (p.type == PacketType::kData && p.seq == 30 && !p.retransmit && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  TcpFlowParams params;
  params.size_bytes = 200'000;
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(10));
  EXPECT_EQ(dropped, 1);
  ASSERT_GT(done.nanos(), 0);
  EXPECT_GE(net.Retransmits(), 1u);
  // Fast retransmit, not RTO: completion well under the 200 ms min RTO tail.
  EXPECT_LT(done.ToMillis(), 700.0);
}

TEST(TcpFlowTest, RecoversFromBurstLossViaRto) {
  int to_drop = 0;
  TwoHostNet net(Rate::Mbps(96), TimeDelta::Millis(50), [&](const Packet& p) {
    if (p.type == PacketType::kData && p.seq >= 20 && p.seq < 40 && !p.retransmit &&
        to_drop < 20) {
      ++to_drop;
      return true;
    }
    return false;
  });
  TcpFlowParams params;
  params.size_bytes = 100'000;
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(30));
  ASSERT_GT(done.nanos(), 0) << "flow must complete despite a 20-packet burst loss";
  EXPECT_GE(net.Retransmits(), 1u);
}

TEST(TcpFlowTest, SurvivesRandomLoss) {
  uint64_t count = 0;
  TwoHostNet net(Rate::Mbps(48), TimeDelta::Millis(30), [&](const Packet& p) {
    (void)p;
    return (++count % 37) == 0;  // ~2.7% loss on every forward packet
  });
  TcpFlowParams params;
  params.size_bytes = 2'000'000;
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(60));
  EXPECT_GT(done.nanos(), 0);
}

TEST(TcpFlowTest, BacklogggedFlowNeverCompletes) {
  TwoHostNet net;
  TcpFlowParams params;
  params.size_bytes = -1;  // backlogged
  TcpSender* snd = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(3));
  EXPECT_FALSE(snd->complete());
  // It should have moved ~3 s * 96 Mbit/s of data.
  EXPECT_GT(snd->delivered_bytes(), static_cast<int64_t>(0.7 * 3 * 96e6 / 8));
}

TEST(TcpFlowTest, SrttConvergesToPathRtt) {
  TwoHostNet net(Rate::Mbps(96), TimeDelta::Millis(80));
  TcpFlowParams params;
  params.size_bytes = 500'000;
  // Sampled when the last byte lands: the sender is still live then (it
  // frees itself once that byte's ACK gets back).
  TcpSender* snd = nullptr;
  TimeDelta srtt;
  snd = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
                     [&](TimePoint) { srtt = snd->srtt(); });
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
  // Queueing at 96 Mbit/s for this size is small; srtt ~ 80 ms.
  EXPECT_NEAR(srtt.ToMillis(), 80.0, 15.0);
}

TEST(TcpFlowTest, CompetingFlowsShareFairly) {
  TwoHostNet net(Rate::Mbps(48), TimeDelta::Millis(40), nullptr,
                 /*buffer=*/static_cast<int64_t>(2 * 48e6 / 8 * 0.04));
  TcpFlowParams params;
  params.size_bytes = -1;
  TcpSender* f1 = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  TcpSender* f2 = StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(30));
  double share1 = static_cast<double>(f1->delivered_bytes());
  double share2 = static_cast<double>(f2->delivered_bytes());
  double ratio = std::max(share1, share2) / std::min(share1, share2);
  EXPECT_LT(ratio, 2.0) << share1 << " vs " << share2;
  // Combined they saturate the link.
  EXPECT_GT(share1 + share2, 0.8 * 30 * 48e6 / 8);
}

TEST(TcpFlowTest, EveryHostCcCompletesAFlow) {
  for (HostCcType cc : {HostCcType::kCubic, HostCcType::kNewReno, HostCcType::kBbr}) {
    TwoHostNet net;
    TcpFlowParams params;
    params.size_bytes = 300'000;
    params.cc = cc;
    TimePoint done;
    StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
                 [&](TimePoint t) { done = t; });
    net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(20));
    EXPECT_GT(done.nanos(), 0) << HostCcTypeName(cc);
  }
}

TEST(TcpFlowTest, IpIdsIncrementPerTransmission) {
  // Retransmitted packets must carry fresh IP IDs (epoch requirement §4.5).
  std::vector<uint16_t> ids_for_seq30;
  TwoHostNet net(Rate::Mbps(96), TimeDelta::Millis(50), [&](const Packet& p) {
    if (p.type == PacketType::kData && p.seq == 30) {
      ids_for_seq30.push_back(p.ip_id);
      if (ids_for_seq30.size() == 1) {
        return true;  // drop the first transmission
      }
    }
    return false;
  });
  TcpFlowParams params;
  params.size_bytes = 150'000;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params, nullptr);
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(10));
  ASSERT_GE(ids_for_seq30.size(), 2u);
  EXPECT_NE(ids_for_seq30[0], ids_for_seq30[1]);
}

// A packet no flow claims that is addressed to CtlAddress(the host's site)
// goes to the control handler, and counts as unclaimed while there is none.
// A flow's packets never reach the control handler.
TEST(HostTest, HandsItsSiteControlTrafficToTheControlHandler) {
  Simulator sim;
  Host host(&sim, MakeAddress(1, 1), nullptr);
  std::vector<Address> ctl_from;
  std::vector<Address> flow_from;
  LambdaHandler ctl([&ctl_from](Packet pkt) { ctl_from.push_back(pkt.key.src); });
  LambdaHandler flow([&flow_from](Packet pkt) { flow_from.push_back(pkt.key.src); });
  auto feedback = [](Address dst) {
    Packet pkt;
    pkt.type = PacketType::kBundlerFeedback;
    pkt.key.src = CtlAddress(2);
    pkt.key.dst = dst;
    return pkt;
  };

  host.HandlePacket(feedback(CtlAddress(1)));  // no control handler yet
  EXPECT_EQ(host.unclaimed_packets(), 1u);

  host.set_ctl(&ctl);
  host.HandlePacket(feedback(CtlAddress(1)));
  host.HandlePacket(feedback(CtlAddress(3)));  // another site's: unclaimed
  EXPECT_EQ(ctl_from, std::vector<Address>{CtlAddress(2)});
  EXPECT_EQ(host.unclaimed_packets(), 2u);

  // Flow 7's packets reach the flow, even one to the control address; an
  // ACK for a flow the host no longer has is unclaimed.
  host.Register(7, &flow);
  FlowKey key;
  key.src = MakeAddress(2, 1);
  key.dst = MakeAddress(1, 1);
  host.HandlePacket(MakeDataPacket(/*flow_id=*/7, key, /*seq=*/0, 1000));
  Packet to_ctl = feedback(CtlAddress(1));
  to_ctl.flow_id = 7;
  host.HandlePacket(std::move(to_ctl));
  Packet stale_ack = MakeAckPacket(MakeDataPacket(/*flow_id=*/9, key, 0, 1000),
                                   MakeAddress(2, 1), MakeAddress(1, 1));
  host.HandlePacket(std::move(stale_ack));
  EXPECT_EQ(flow_from, (std::vector<Address>{MakeAddress(2, 1), CtlAddress(2)}));
  EXPECT_EQ(ctl_from.size(), 1u);
  EXPECT_EQ(host.unclaimed_packets(), 3u);
}

TEST(UdpPingPongTest, MeasuresBaseRtt) {
  TwoHostNet net(Rate::Mbps(96), TimeDelta::Millis(60));
  UdpPingPongClient* client = StartUdpPingPong(&net.flows, net.a.get(), net.b.get());
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
  EXPECT_GT(client->completed(), 50u);
  EXPECT_NEAR(client->rtt_ms().Median(), 60.0, 2.0);
}

TEST(UdpPingPongTest, RecordingWindowFiltersSamples) {
  TwoHostNet net(Rate::Mbps(96), TimeDelta::Millis(20));
  UdpPingPongClient* client = StartUdpPingPong(&net.flows, net.a.get(), net.b.get());
  client->SetRecordingWindow(TimePoint::Zero() + TimeDelta::Seconds(2),
                             TimePoint::Zero() + TimeDelta::Seconds(3));
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
  // ~1 s of samples at 20 ms per round trip = ~50.
  EXPECT_NEAR(static_cast<double>(client->rtt_ms().count()), 50.0, 10.0);
}

TEST(UdpPingPongTest, ClosedLoopIsSelfClocked) {
  // The ping-pong loop must not flood: exactly one request outstanding.
  TwoHostNet net(Rate::Mbps(1), TimeDelta::Millis(100));
  UdpPingPongClient* client = StartUdpPingPong(&net.flows, net.a.get(), net.b.get());
  net.sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(2));
  // At 100 ms RTT, at most ~20 exchanges in 2 s.
  EXPECT_LE(client->completed(), 21u);
  EXPECT_GE(client->completed(), 15u);
}

}  // namespace
}  // namespace bundler
