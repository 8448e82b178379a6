// FlowTable arena-reclamation tests (src/transport/endpoint.h): free-list
// recycling and swap-remove header fixup at the unit level, misuse death
// tests, a TCP integration run over the fat-tree fabric where every
// completed flow hands its sender and receiver blocks back to the arena —
// a second wave of flows must be carved entirely from the free lists — the
// host demux emptying as flows complete, and the stateless TIME_WAIT: a host
// answers data of a completed receiver's flow with the final ACK.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/net/link.h"
#include "src/qdisc/fifo.h"
#include "src/sim/simulator.h"
#include "src/topo/fat_tree.h"
#include "src/topo/net_builder.h"
#include "src/transport/endpoint.h"
#include "src/transport/tcp_flow.h"

namespace bundler {
namespace {

struct Tracked {
  explicit Tracked(int* live_counter) : live(live_counter) { ++*live_counter; }
  ~Tracked() { --*live; }
  int* live;
  char payload[40] = {};
};

TEST(FlowReclaimTest, ReleaseRecyclesBlocksThroughTheFreeList) {
  FlowTable table;
  int live = 0;
  Tracked* a = table.Emplace<Tracked>(&live);
  Tracked* b = table.Emplace<Tracked>(&live);
  Tracked* c = table.Emplace<Tracked>(&live);
  EXPECT_EQ(live, 3);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.arena_blocks(), 1u);

  // Middle release: the last entry swaps into b's owned_ slot, and its header
  // must be re-pointed — releasing it afterwards has to find the right slot.
  table.Release(b);
  EXPECT_EQ(live, 2);
  EXPECT_EQ(table.size(), 2u);
  table.Release(c);
  table.Release(a);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.releases(), 3u);
  EXPECT_EQ(table.reuses(), 0u);

  // New same-class objects come off the free list (LIFO), not the arena.
  Tracked* d = table.Emplace<Tracked>(&live);
  Tracked* e = table.Emplace<Tracked>(&live);
  EXPECT_EQ(d, a);
  EXPECT_EQ(e, c);
  EXPECT_EQ(table.reuses(), 2u);
  EXPECT_EQ(table.arena_blocks(), 1u);
  table.Release(d);
  table.Release(e);
  EXPECT_EQ(live, 0);
}

TEST(FlowReclaimTest, SizeClassesKeepIndependentFreeLists) {
  struct Big {
    explicit Big(int* live_counter) : live(live_counter) { ++*live_counter; }
    ~Big() { --*live; }
    int* live;
    char payload[200] = {};
  };
  FlowTable table;
  int live = 0;
  Tracked* small = table.Emplace<Tracked>(&live);
  Big* big = table.Emplace<Big>(&live);
  table.Release(small);
  table.Release(big);
  // Each class reuses its own freed block; a 200-byte object must never land
  // in a 64-byte slot.
  Big* big2 = table.Emplace<Big>(&live);
  Tracked* small2 = table.Emplace<Tracked>(&live);
  EXPECT_EQ(static_cast<void*>(big2), static_cast<void*>(big));
  EXPECT_EQ(static_cast<void*>(small2), static_cast<void*>(small));
  EXPECT_EQ(table.reuses(), 2u);
  table.Release(big2);
  table.Release(small2);
  EXPECT_EQ(live, 0);
}

TEST(FlowReclaimTest, TableDestroysObjectsStillLive) {
  int live = 0;
  {
    FlowTable table;
    Tracked* a = table.Emplace<Tracked>(&live);
    (void)table.Emplace<Tracked>(&live);
    (void)table.Emplace<Tracked>(&live);
    table.Release(a);
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
}

TEST(FlowReclaimDeathTest, ReleaseOfForeignPointerDies) {
  FlowTable table;
  uint64_t buf[8] = {};  // leading zeros where the magic header would sit
  EXPECT_DEATH(table.Release(&buf[2]), "does not own");
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FlowReclaimDeathTest, ReadAfterReleaseFaultsUnderAsan) {
  // A released payload stays in the arena; AddressSanitizer poisons it so a
  // stale handle faults instead of silently reading a dead object.
  FlowTable table;
  int live = 0;
  Tracked* t = table.Emplace<Tracked>(&live);
  t->payload[0] = 'x';
  table.Release(t);
  EXPECT_DEATH(
      {
        volatile char c = t->payload[0];
        (void)c;
      },
      "use-after-poison");
  // Reuse unpoisons the block for its new owner.
  Tracked* u = table.Emplace<Tracked>(&live);
  EXPECT_EQ(static_cast<void*>(u), static_cast<void*>(t));
  EXPECT_EQ(u->payload[0], 0);
}
#endif

// Integration: completed TCP flows self-release. The sender frees at
// completion; the receiver frees when its last byte arrives and leaves its
// TIME_WAIT to the host. A second wave created after the first wave's blocks
// return must allocate entirely from the free lists — steady-state churn does
// not grow the arena.
TEST(FlowReclaimTest, CompletedTcpFlowsReleaseAndNewFlowsReuse) {
  FatTreeConfig cfg;
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);
  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);

  auto start_wave = [&](TimePoint base) {
    int n = 0;
    for (int l = 1; l < cfg.num_leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        Host* src = net->host(
            g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)]);
        Host* dst = net->host(g.hosts[0][static_cast<size_t>(h)]);
        const TimePoint start = base + TimeDelta::Micros(50 * n);
        ++n;
        TcpFlowParams params;
        params.size_bytes = 64 * 1024;
        params.request_start = start;
        TcpSender* sender =
            CreateTcpFlow(net->flows(), src, dst, params, nullptr);
        sim.ScheduleAt(start, [sender]() { sender->Start(); });
      }
    }
    return n;
  };

  const int first = start_wave(TimePoint::Zero() + TimeDelta::Millis(1));
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(3));
  // First wave fully complete: every sender and receiver released, table
  // empty, arena warm.
  EXPECT_EQ(net->flows()->releases(), static_cast<uint64_t>(2 * first));
  EXPECT_EQ(net->flows()->size(), 0u);
  const size_t warm_blocks = net->flows()->arena_blocks();

  const int second = start_wave(sim.now() + TimeDelta::Millis(1));
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(8));
  EXPECT_EQ(net->flows()->releases(), static_cast<uint64_t>(2 * (first + second)));
  EXPECT_EQ(net->flows()->size(), 0u);
  // The entire second wave was carved from recycled blocks.
  EXPECT_EQ(net->flows()->reuses(), static_cast<uint64_t>(2 * second));
  EXPECT_EQ(net->flows()->arena_blocks(), warm_blocks);
}

// The host demux holds live flows only: a completed receiver unregisters
// (its TIME_WAIT is stateless, see below) and a completed sender vacates its
// id, so once every flow is done both hosts' tables are empty.
TEST(FlowReclaimTest, DemuxHoldsOnlyLiveFlows) {
  Simulator sim;
  FlowTable flows;
  Host a(&sim, MakeAddress(1, 1), nullptr);
  Host b(&sim, MakeAddress(2, 1), nullptr);
  Link ab(&sim, "ab", Rate::Mbps(48), TimeDelta::Millis(10),
          std::make_unique<DropTailFifo>(1 << 21), &b);
  Link ba(&sim, "ba", Rate::Mbps(48), TimeDelta::Millis(10),
          std::make_unique<DropTailFifo>(1 << 21), &a);
  a.set_egress(&ab);
  b.set_egress(&ba);

  constexpr int kFlows = 40;
  int completed = 0;
  for (int i = 0; i < kFlows; ++i) {
    TcpFlowParams params;
    params.size_bytes = 20'000 + 1'000 * i;
    TcpSender* sender =
        CreateTcpFlow(&flows, &a, &b, params, [&](TimePoint) { ++completed; });
    sim.ScheduleAt(TimePoint::Zero() + TimeDelta::Millis(5 * i),
                   [sender]() { sender->Start(); });
  }
  EXPECT_EQ(a.registered_flows(), static_cast<size_t>(kFlows));
  EXPECT_EQ(b.registered_flows(), static_cast<size_t>(kFlows));

  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(10));
  ASSERT_EQ(completed, kFlows);
  EXPECT_EQ(flows.size(), 0u);
  EXPECT_EQ(b.registered_flows(), 0u) << "completed receivers left the demux";
  EXPECT_EQ(a.registered_flows(), 0u) << "completed senders left the demux";
}

// TIME_WAIT: the receiver frees itself the moment its last byte arrives, but
// the sender can only finish once a final ACK gets back. Every final ACK is
// lost for 3 s, so the sender keeps retransmitting its tail into the retired
// flow id long after the receiver is gone; the host must keep answering for
// it, and the sender must still complete.
TEST(FlowReclaimTest, RetiredReceiverKeepsAckingTheTail) {
  Simulator sim;
  FlowTable flows;
  Host a(&sim, MakeAddress(1, 1), nullptr);
  Host b(&sim, MakeAddress(2, 1), nullptr);
  Link ab(&sim, "ab", Rate::Mbps(48), TimeDelta::Millis(20),
          std::make_unique<DropTailFifo>(1 << 21), &b);
  Link ba(&sim, "ba", Rate::Mbps(48), TimeDelta::Millis(20),
          std::make_unique<DropTailFifo>(1 << 21), &a);
  a.set_egress(&ab);

  TcpFlowParams params;
  params.size_bytes = 100'000;
  const int64_t total = (params.size_bytes + kMssBytes - 1) / kMssBytes;
  TimePoint first_final_ack = TimePoint::Infinite();
  int final_acks_dropped = 0;
  int final_acks_passed = 0;
  LambdaHandler reverse([&](Packet p) {
    if (p.type == PacketType::kAck && p.seq == total) {
      const TimePoint now = sim.now();
      if (first_final_ack.IsInfinite()) {
        first_final_ack = now;
      }
      if (now < first_final_ack + TimeDelta::Seconds(3)) {
        ++final_acks_dropped;
        return;
      }
      ++final_acks_passed;
    }
    ba.HandlePacket(std::move(p));
  });
  b.set_egress(&reverse);

  TimePoint done = TimePoint::Infinite();
  StartTcpFlow(&flows, &a, &b, params, [&](TimePoint t) { done = t; });

  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(1));
  ASSERT_FALSE(done.IsInfinite());
  EXPECT_EQ(flows.size(), 1u) << "receiver released, sender still waiting";

  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(30));
  EXPECT_GT(final_acks_dropped, 1) << "the sender retransmitted into the blackout";
  EXPECT_GE(final_acks_passed, 1) << "a retransmission after the blackout drew an ACK";
  EXPECT_EQ(flows.size(), 0u) << "the sender completed and freed itself";
  EXPECT_EQ(flows.releases(), 2u);
  EXPECT_EQ(b.unclaimed_packets(), 0u) << "every retransmission reached the acker";
}

}  // namespace
}  // namespace bundler
