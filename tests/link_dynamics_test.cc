// Mid-run link dynamics: Link::set_rate / set_prop_delay semantics (the
// in-flight packet finishes at the old rate, the queue drains at the new
// rate, rate zero parks the link and a later set_rate unparks it), the
// zero/near-zero serialization-time guard, the LinkScheduleDriver, link
// monitors' site filters, and NetBuilder's declarative event timeline
// (validation death tests included).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/link.h"
#include "src/net/link_schedule.h"
#include "src/net/monitors.h"
#include "src/qdisc/fifo.h"
#include "src/topo/net_builder.h"

namespace bundler {
namespace {

TimePoint At(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

Packet DataPacket(uint32_t size_bytes, int64_t seq = 0) {
  FlowKey key;
  key.src = MakeAddress(1, 1);
  key.dst = MakeAddress(2, 1);
  key.protocol = 6;
  return MakeDataPacket(/*flow_id=*/7, key, seq, size_bytes);
}

// Harness: a link into a recording sink. 1 Mbit/s serializes a 1000-byte
// packet in exactly 8 ms, which keeps expected arrival times round.
struct LinkHarness {
  explicit LinkHarness(Rate rate, TimeDelta prop = TimeDelta::Zero(),
                       int64_t buffer = 1 << 20)
      : sink([this](Packet p) {
          arrivals.push_back(sim.now());
          seqs.push_back(p.seq);
          bytes += p.size_bytes;
        }),
        link(&sim, "dyn", rate, prop, std::make_unique<DropTailFifo>(buffer), &sink) {}

  Simulator sim;
  std::vector<TimePoint> arrivals;
  std::vector<int64_t> seqs;  // in arrival order
  int64_t bytes = 0;
  LambdaHandler sink;
  Link link;
};

TEST(LinkDynamicsTest, MidTransmissionRateChangeKeepsOldFinishTime) {
  LinkHarness h(Rate::Mbps(1));
  h.link.HandlePacket(DataPacket(1000));  // serialization: 8 ms at 1 Mbit/s
  // Raise the rate 1 ms into the transmission: the in-flight packet still
  // finishes at its original 8 ms deadline.
  h.sim.ScheduleAt(At(0.001), [&]() { h.link.set_rate(Rate::Mbps(8)); });
  h.sim.RunAll();
  ASSERT_EQ(h.arrivals.size(), 1u);
  EXPECT_EQ(h.arrivals[0], At(0.008));
}

TEST(LinkDynamicsTest, QueueDrainsAtNewRate) {
  LinkHarness h(Rate::Mbps(1));
  for (int i = 0; i < 3; ++i) {
    h.link.HandlePacket(DataPacket(1000));
  }
  // 8x the rate mid-first-packet: packets 2 and 3 serialize in 1 ms each.
  h.sim.ScheduleAt(At(0.001), [&]() { h.link.set_rate(Rate::Mbps(8)); });
  h.sim.RunAll();
  ASSERT_EQ(h.arrivals.size(), 3u);
  EXPECT_EQ(h.arrivals[0], At(0.008));
  EXPECT_EQ(h.arrivals[1], At(0.009));
  EXPECT_EQ(h.arrivals[2], At(0.010));
}

TEST(LinkDynamicsTest, RateZeroParksAndSetRateResumes) {
  LinkHarness h(Rate::Mbps(1));
  h.sim.ScheduleAt(At(0.010), [&]() {
    h.link.set_rate(Rate::Zero());
    EXPECT_TRUE(h.link.parked());
    h.link.HandlePacket(DataPacket(1000));
    h.link.HandlePacket(DataPacket(1000));
  });
  h.sim.ScheduleAt(At(0.050), [&]() { h.link.set_rate(Rate::Mbps(1)); });
  h.sim.RunAll();
  // Both packets wait out the 40 ms park, then drain back-to-back.
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[0], At(0.058));
  EXPECT_EQ(h.arrivals[1], At(0.066));
  EXPECT_FALSE(h.link.parked());
  EXPECT_EQ(h.link.stats().packets_sent, 2u);
}

TEST(LinkDynamicsTest, ParkAfterInFlightLetsItFinish) {
  LinkHarness h(Rate::Mbps(1));
  h.link.HandlePacket(DataPacket(1000));
  h.link.HandlePacket(DataPacket(1000));
  // Park 1 ms into the first packet: it still completes at 8 ms; the second
  // stays queued until the unpark at 20 ms.
  h.sim.ScheduleAt(At(0.001), [&]() { h.link.set_rate(Rate::Zero()); });
  h.sim.ScheduleAt(At(0.020), [&]() { h.link.set_rate(Rate::Mbps(1)); });
  h.sim.RunAll();
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[0], At(0.008));
  EXPECT_EQ(h.arrivals[1], At(0.028));
}

TEST(LinkDynamicsTest, ParkedLinkDropsPerQueuePolicyNotSilently) {
  // Buffer of two packets: during a park the third arrival must drop at the
  // qdisc (counted), not vanish or crash.
  LinkHarness h(Rate::Mbps(1), TimeDelta::Zero(), /*buffer=*/2 * 1000);
  h.link.set_rate(Rate::Zero());
  for (int i = 0; i < 3; ++i) {
    h.link.HandlePacket(DataPacket(1000));
  }
  h.sim.ScheduleAt(At(0.010), [&]() { h.link.set_rate(Rate::Mbps(1)); });
  h.sim.RunAll();
  EXPECT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.link.stats().drops, 1u);
  EXPECT_EQ(h.link.stats().packets_sent, 2u);
}

TEST(LinkDynamicsTest, NearZeroRateRegressionNoOverflow) {
  // Regression: a pathological (positive but unusably slow) LinkSpec rate
  // used to overflow the serialization-time cast into a negative delay and
  // CHECK-fail deep in the engine. It must now park cleanly.
  LinkHarness h(Rate::BitsPerSec(1e-9));
  EXPECT_TRUE(h.link.parked());
  h.link.HandlePacket(DataPacket(1000));
  h.sim.ScheduleAt(At(0.001), [&]() { h.link.set_rate(Rate::Mbps(1)); });
  h.sim.RunAll();
  ASSERT_EQ(h.arrivals.size(), 1u);
  EXPECT_EQ(h.arrivals[0], At(0.009));
}

TEST(LinkDynamicsTest, TransmitTimeSaturatesInsteadOfOverflowing) {
  EXPECT_TRUE(Rate::Zero().TransmitTime(1500).IsInfinite());
  EXPECT_TRUE(Rate::BitsPerSec(1e-12).TransmitTime(1500).IsInfinite());
  EXPECT_FALSE(Rate::BitsPerSec(1.0).TransmitTime(1500).IsInfinite());
  EXPECT_GT(Rate::BitsPerSec(1e-12).TransmitTime(1500), TimeDelta::Seconds(1));
}

TEST(LinkDynamicsTest, PropDelayChangeAppliesToLaterPackets) {
  LinkHarness h(Rate::Mbps(1), TimeDelta::Millis(10));
  h.link.HandlePacket(DataPacket(1000));  // finishes serializing at 8 ms
  h.link.HandlePacket(DataPacket(1000));  // finishes serializing at 16 ms
  // Change the delay while the first packet is propagating: it keeps its
  // 10 ms, the second (still serializing) picks up the new 2 ms.
  h.sim.ScheduleAt(At(0.009), [&]() { h.link.set_prop_delay(TimeDelta::Millis(2)); });
  h.sim.RunAll();
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[0], At(0.018));
  EXPECT_EQ(h.arrivals[1], At(0.018));  // 16 ms + 2 ms
}

TEST(LinkDynamicsTest, ReorderingDelayCutDeliversEachPacketItself) {
  LinkHarness h(Rate::Mbps(1), TimeDelta::Millis(10));
  h.link.HandlePacket(DataPacket(1000, /*seq=*/0));  // serialized at 8 ms
  h.link.HandlePacket(DataPacket(1000, /*seq=*/1));  // serialized at 16 ms
  // Cut the delay while seq 0 propagates: it keeps 10 ms and lands at 18 ms,
  // seq 1 takes 1 ms and overtakes it at 17 ms. Each arrival must carry its
  // own packet; a link that popped its in-flight packets in FIFO order at
  // delivery would hand seq 0 over at 17 ms.
  h.sim.ScheduleAt(At(0.009), [&]() { h.link.set_prop_delay(TimeDelta::Millis(1)); });
  h.sim.RunAll();
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.seqs, (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(h.arrivals[0], At(0.017));
  EXPECT_EQ(h.arrivals[1], At(0.018));
}

TEST(LinkDynamicsTest, ObserverCountersConsistentAcrossPark) {
  LinkHarness h(Rate::Mbps(1));
  QueueDelayMonitor qmon;
  RateMeter meter(&h.sim, TimeDelta::Millis(10));
  h.link.AddObserver(&qmon);
  h.link.AddObserver(&meter);
  h.link.set_rate(Rate::Zero());
  h.link.HandlePacket(DataPacket(1000));
  h.sim.ScheduleAt(At(0.030), [&]() { h.link.set_rate(Rate::Mbps(1)); });
  h.sim.RunAll();
  // The parked sojourn counts as queue delay; the meter sees every byte the
  // link sent.
  ASSERT_EQ(qmon.delay_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(qmon.delay_ms().samples()[0].value, 30.0);
  EXPECT_EQ(meter.total_bytes(), h.bytes);
  EXPECT_EQ(h.link.stats().bytes_sent, h.bytes);
}

TEST(LinkMonitorTest, PacketFilterSelectsSitePairData) {
  LinkHarness h(Rate::Mbps(8));
  RateMeter every(&h.sim, TimeDelta::Millis(10));
  RateMeter from1(&h.sim, TimeDelta::Millis(10), PacketFilter::DataFrom(1));
  RateMeter from1_to2(&h.sim, TimeDelta::Millis(10), PacketFilter::DataFrom(1, 2));
  QueueDelayMonitor delay_1_to_2(PacketFilter::DataFrom(1, 2));
  h.link.AddObserver(&every);
  h.link.AddObserver(&from1);
  h.link.AddObserver(&from1_to2);
  h.link.AddObserver(&delay_1_to_2);
  auto data = [](SiteId src, SiteId dst, uint32_t size) {
    FlowKey key;
    key.src = MakeAddress(src, 1);
    key.dst = MakeAddress(dst, 1);
    return MakeDataPacket(/*flow_id=*/1, key, /*seq=*/0, size);
  };
  h.link.HandlePacket(data(1, 2, 1000));
  h.link.HandlePacket(data(1, 3, 500));
  h.link.HandlePacket(data(3, 2, 300));
  // An ACK leaving site 1 for site 2: same sites as the data, wrong type.
  Packet reverse = data(2, 1, 1000);
  h.link.HandlePacket(MakeAckPacket(reverse, MakeAddress(1, 1), MakeAddress(2, 1)));
  h.sim.RunAll();

  EXPECT_EQ(every.total_bytes(), 1000 + 500 + 300 + kAckBytes);  // ACKs too
  EXPECT_EQ(from1.total_bytes(), 1000 + 500);  // no ACK, no site 3 source
  EXPECT_EQ(from1_to2.total_bytes(), 1000);    // no site 3 destination
  EXPECT_EQ(delay_1_to_2.delay_ms().size(), 1u);
}

TEST(LinkScheduleDriverTest, AppliesTimelineInOrder) {
  LinkHarness h(Rate::Mbps(1));
  std::vector<LinkEventSpec> events;
  events.push_back({At(0.005), Rate::Mbps(8), false, TimeDelta::Zero()});
  events.push_back({At(0.010), Rate::Mbps(2), true, TimeDelta::Millis(3)});
  LinkScheduleDriver driver(&h.sim, &h.link, events);
  h.sim.RunUntil(At(0.007));
  EXPECT_EQ(h.link.rate(), Rate::Mbps(8));
  EXPECT_EQ(h.link.prop_delay(), TimeDelta::Zero());
  EXPECT_EQ(driver.fired(), 1u);
  EXPECT_FALSE(driver.done());
  h.sim.RunUntil(At(0.020));
  EXPECT_EQ(h.link.rate(), Rate::Mbps(2));
  EXPECT_EQ(h.link.prop_delay(), TimeDelta::Millis(3));
  EXPECT_EQ(driver.fired(), 2u);
  EXPECT_TRUE(driver.done());
}

TEST(LinkScheduleDriverTest, RepeatingTraceLoops) {
  LinkHarness h(Rate::Mbps(4));
  std::vector<LinkEventSpec> events;
  events.push_back({At(0.001), Rate::Mbps(1), false, TimeDelta::Zero()});
  events.push_back({At(0.002), Rate::Mbps(4), false, TimeDelta::Zero()});
  LinkScheduleDriver driver(&h.sim, &h.link, events, TimeDelta::Millis(4));
  h.sim.RunUntil(At(0.0215));  // 5 full cycles + the 6th cycle's first event
  EXPECT_EQ(driver.fired(), 11u);
  EXPECT_EQ(h.link.rate(), Rate::Mbps(1));
  EXPECT_FALSE(driver.done());
}

NetBuilder TwoSiteNet(NetBuilder::EdgeId* forward, NetBuilder::EdgeId* wire) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 1);
  NetBuilder::NodeId z = b.AddSite("z", 2);
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  NetBuilder::NodeId r2 = b.AddRouter("r2");
  b.AddLink(a, r1, NetBuilder::LinkSpec{}, "a_up");
  NetBuilder::EdgeId fwd = b.AddLink(r1, r2, NetBuilder::LinkSpec{}, "core");
  NetBuilder::EdgeId w = b.AddWire(r2, z);
  b.AddLink(z, r2, NetBuilder::LinkSpec{}, "z_up");
  b.AddWire(r1, a);
  if (forward != nullptr) {
    *forward = fwd;
  }
  if (wire != nullptr) {
    *wire = w;
  }
  return b;
}

TEST(NetBuilderEventTest, BuildsAndDrivesScheduledLink) {
  NetBuilder::EdgeId fwd = -1;
  NetBuilder b = TwoSiteNet(&fwd, nullptr);
  NetBuilder::ScheduleId flap = b.AddLinkEvent(fwd, At(1.0), Rate::Zero());
  NetBuilder::ScheduleId restore =
      b.AddLinkEvent(fwd, At(2.0), Rate::Mbps(50), TimeDelta::Millis(9));
  EXPECT_EQ(b.num_link_schedules(), 2u);

  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  sim.RunUntil(At(1.5));
  EXPECT_TRUE(net->link(fwd)->parked());
  EXPECT_EQ(net->link_schedule(flap)->fired(), 1u);
  EXPECT_EQ(net->link_schedule(restore)->fired(), 0u);
  sim.RunUntil(At(2.5));
  EXPECT_EQ(net->link(fwd)->rate(), Rate::Mbps(50));
  EXPECT_EQ(net->link(fwd)->prop_delay(), TimeDelta::Millis(9));
  EXPECT_TRUE(net->link_schedule(restore)->done());
}

TEST(NetBuilderEventDeathTest, RejectsUnknownEdge) {
  NetBuilder b = TwoSiteNet(nullptr, nullptr);
  EXPECT_DEATH(b.AddLinkEvent(99, At(1.0), Rate::Mbps(1)), "only .* edges are declared");
}

TEST(NetBuilderEventDeathTest, RejectsWireEdge) {
  NetBuilder::EdgeId wire = -1;
  NetBuilder b = TwoSiteNet(nullptr, &wire);
  EXPECT_DEATH(b.AddLinkEvent(wire, At(1.0), Rate::Mbps(1)), "not a plain link");
}

TEST(NetBuilderEventDeathTest, RejectsOutOfOrderTimestamps) {
  NetBuilder::EdgeId fwd = -1;
  NetBuilder b = TwoSiteNet(&fwd, nullptr);
  std::vector<LinkEventSpec> events;
  events.push_back({At(2.0), Rate::Mbps(1), false, TimeDelta::Zero()});
  events.push_back({At(1.0), Rate::Mbps(2), false, TimeDelta::Zero()});
  EXPECT_DEATH(b.AddLinkSchedule(fwd, events), "strictly increasing");
}

TEST(NetBuilderEventDeathTest, RejectsEmptyScheduleAndShortRepeat) {
  NetBuilder::EdgeId fwd = -1;
  NetBuilder b = TwoSiteNet(&fwd, nullptr);
  EXPECT_DEATH(b.AddLinkSchedule(fwd, {}), "no events");
  std::vector<LinkEventSpec> events;
  events.push_back({At(1.0), Rate::Mbps(1), false, TimeDelta::Zero()});
  EXPECT_DEATH(b.AddLinkSchedule(fwd, events, TimeDelta::Millis(500)),
               "does not clear the last event");
}

}  // namespace
}  // namespace bundler
