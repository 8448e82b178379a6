// FaultInjector (src/net/fault_injector.h): targeting (which packet types a
// window drops, and that untargeted packets pass in order, uncounted),
// blackout window edge semantics, an allocation-free faulted datapath, a
// passive injector that never schedules an event, profile-validation death
// tests, and the end-to-end guarantee that a faulted topology produces
// identical results unsharded and sharded at any worker count.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/net/fault_injector.h"
#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/shard_channel.h"
#include "src/sim/shard_runner.h"
#include "src/sim/simulator.h"
#include "src/topo/dumbbell.h"
#include "src/topo/net_builder.h"
#include "src/topo/partition.h"
#include "src/transport/tcp_flow.h"
#include "tests/alloc_counter.h"

namespace bundler {
namespace {

TimePoint At(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

Packet DataPacket(int64_t seq) {
  FlowKey key;
  key.src = MakeAddress(1, 1);
  key.dst = MakeAddress(2, 1);
  key.protocol = 6;
  return MakeDataPacket(/*flow_id=*/7, key, seq, /*size_bytes=*/1000);
}

Packet CtlPacket(PacketType type, int64_t seq) {
  Packet pkt;
  pkt.type = type;
  pkt.seq = seq;
  pkt.size_bytes = 64;
  return pkt;
}

// Injector into a recording sink. Arrival order and identity (type, seq) are
// what the assertions compare.
struct Harness {
  explicit Harness(const FaultProfileSpec& spec)
      : sink([this](Packet p) { arrivals.emplace_back(p.type, p.seq); }),
        inj(&sim, "t", spec, &sink) {}

  Simulator sim;
  std::vector<std::pair<PacketType, int64_t>> arrivals;
  LambdaHandler sink;
  FaultInjector inj;
};

// A window that covers every packet the targeting tests send at t = 0.
FaultProfileSpec OpenWindow(FaultTarget target) {
  return {target, {{TimeDelta::Zero(), TimeDelta::Seconds(1)}}};
}

// Inside a window, kCtl drops both Bundler control types, while every data
// packet passes in order, uncounted: the stats describe the targeted
// population only.
TEST(FaultInjectorTest, CtlTargetDropsControlAndForwardsDataInOrder) {
  Harness h(OpenWindow(FaultTarget::kCtl));
  std::vector<std::pair<PacketType, int64_t>> expected;
  for (int64_t i = 0; i < 300; ++i) {
    // Interleave: data, feedback, data, epoch ctl, ...
    h.inj.HandlePacket(DataPacket(i));
    expected.emplace_back(PacketType::kData, i);
    const PacketType ctl =
        i % 2 == 0 ? PacketType::kBundlerFeedback : PacketType::kBundlerEpochCtl;
    h.inj.HandlePacket(CtlPacket(ctl, i));
  }
  EXPECT_EQ(h.arrivals, expected);
  EXPECT_EQ(h.inj.stats().drops_blackout, 300u);
  EXPECT_EQ(h.inj.stats().passed, 0u);
}

TEST(FaultInjectorTest, FeedbackOnlyTargetSparesEpochCtl) {
  Harness h(OpenWindow(FaultTarget::kFeedbackOnly));
  h.inj.HandlePacket(CtlPacket(PacketType::kBundlerFeedback, 0));
  h.inj.HandlePacket(CtlPacket(PacketType::kBundlerEpochCtl, 1));
  h.inj.HandlePacket(DataPacket(2));
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[0].first, PacketType::kBundlerEpochCtl);
  EXPECT_EQ(h.arrivals[1].first, PacketType::kData);
  EXPECT_EQ(h.inj.stats().drops_blackout, 1u);
}

TEST(FaultInjectorTest, BlackoutWindowsDropExactlyInside) {
  FaultProfileSpec spec;
  spec.blackouts = {{TimeDelta::Millis(10), TimeDelta::Millis(20)},
                    {TimeDelta::Millis(30), TimeDelta::Millis(40)}};
  Harness h(spec);

  // Start inclusive, end exclusive: 10 and 15 drop, 20 passes; the cursor
  // then advances to the second window.
  const double send_ms[] = {5, 10, 15, 20, 25, 30, 39, 40, 45};
  for (size_t i = 0; i < std::size(send_ms); ++i) {
    h.sim.ScheduleAt(At(send_ms[i] / 1000.0), [&h, i]() {
      h.inj.HandlePacket(DataPacket(static_cast<int64_t>(i)));
    });
  }
  h.sim.RunAll();
  std::vector<int64_t> got;
  for (const auto& [type, seq] : h.arrivals) {
    got.push_back(seq);
  }
  EXPECT_EQ(got, (std::vector<int64_t>{0, 3, 4, 7, 8}));
  EXPECT_EQ(h.inj.stats().drops_blackout, 4u);
  EXPECT_EQ(h.inj.stats().passed, 5u);
}

// The faulted datapath allocates nothing once warm. Simulated time advances
// 1 us per packet through a 30 us window every 100 us, so drops and passes
// interleave and the window cursor keeps moving.
TEST(FaultInjectorTest, FaultedDatapathAllocatesNothing) {
  FaultProfileSpec spec;
  for (int64_t w = 0; w < 11000; ++w) {
    const TimeDelta start = TimeDelta::Micros(100 * w);
    spec.blackouts.push_back({start, start + TimeDelta::Micros(30)});
  }
  Simulator sim;
  uint64_t delivered = 0;
  LambdaHandler sink([&delivered](Packet) { ++delivered; });
  FaultInjector inj(&sim, "churn", spec, &sink);
  TimePoint now;
  int64_t seq = 0;
  auto churn = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      now += TimeDelta::Micros(1);
      sim.RunUntil(now);
      inj.HandlePacket(DataPacket(seq++));
    }
  };
  churn(1 << 14);
  const uint64_t before = HeapAllocs();
  churn(1 << 20);
  EXPECT_EQ(HeapAllocs() - before, 0u);
  EXPECT_GT(inj.stats().drops_blackout, 0u);
  EXPECT_GT(inj.stats().passed, 0u);
  EXPECT_EQ(delivered, inj.stats().passed);
}

// The injector schedules nothing, at construction or per packet: declaring
// fault profiles must not perturb event-queue seeding of an otherwise
// identical run.
TEST(FaultInjectorTest, ConstructionIsPassive) {
  Harness h({FaultTarget::kAll, {{TimeDelta::Millis(1), TimeDelta::Millis(2)}}});
  EXPECT_FALSE(h.sim.HasPending());
  h.inj.HandlePacket(DataPacket(0));  // before the window
  h.sim.RunUntil(At(0.0015));
  h.inj.HandlePacket(DataPacket(1));  // inside it
  h.sim.RunUntil(At(0.003));
  h.inj.HandlePacket(DataPacket(2));  // after it
  EXPECT_FALSE(h.sim.HasPending());
  EXPECT_EQ(h.sim.events_dispatched(), 0u);
  EXPECT_EQ(h.inj.stats().drops_blackout, 1u);
  EXPECT_EQ(h.arrivals.size(), 2u);
}

TEST(FaultProfileDeathTest, InvalidProfilesDie) {
  FaultProfileSpec spec;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "no blackout window");

  spec.blackouts = {{TimeDelta::Millis(5), TimeDelta::Millis(5)}};
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "start < end");

  spec.blackouts = {{TimeDelta::Millis(5), TimeDelta::Millis(10)},
                    {TimeDelta::Millis(8), TimeDelta::Millis(12)}};
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "non-overlapping");
}

// --- Sharded determinism -------------------------------------------------
//
// A faulted topology must produce identical results unsharded and sharded at
// any worker count: the injector sits on a link's delivery chain, whose
// arrival order is the repo-wide determinism contract. Uses the non-bundled
// dumbbell (partitions into sender/receiver shards across the faulted
// bottleneck) with blackout windows that drop data packets mid-transfer.

struct ShardOutput {
  std::vector<double> fct_ms;
  FaultInjector::Stats stats;
};

FaultProfileSpec CrossShardProfile() {
  return {FaultTarget::kAll,
          {{TimeDelta::Millis(30), TimeDelta::Millis(36)},
           {TimeDelta::Millis(80), TimeDelta::Millis(84)},
           {TimeDelta::Millis(200), TimeDelta::Millis(203)}}};
}

void ShardWorkload(Net* net, const DumbbellGraph& g, ShardOutput* out) {
  Host* src = net->host(g.servers[0]);
  Host* dst = net->host(g.clients[0]);
  for (int i = 0; i < 16; ++i) {
    TcpFlowParams params;
    params.size_bytes = (16 + (i % 5) * 24) * 1024;
    params.request_start = At(0.003 + 0.007 * i);
    TcpSender* sender = CreateTcpFlow(
        net->flows(), src, dst, params,
        [out, start = params.request_start](TimePoint end) {
          out->fct_ms.push_back((end - start).ToMillis());
        });
    src->sim()->ScheduleAt(params.request_start, [sender]() { sender->Start(); });
  }
}

DumbbellConfig ShardDumbbellConfig() {
  DumbbellConfig cfg;
  cfg.bundler_enabled = false;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(20);
  return cfg;
}

ShardOutput RunFaultedUnsharded() {
  ShardOutput out;
  DumbbellGraph g;
  NetBuilder b = DumbbellBuilder(ShardDumbbellConfig(), &g);
  NetBuilder::FaultId fid = b.AddFaultProfile(g.bottleneck, CrossShardProfile());
  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  ShardWorkload(net.get(), g, &out);
  sim.RunUntil(At(4.0));
  out.stats = net->fault_injector(fid)->stats();
  return out;
}

ShardOutput RunFaultedSharded(int workers) {
  ShardOutput out;
  DumbbellGraph g;
  NetBuilder b = DumbbellBuilder(ShardDumbbellConfig(), &g);
  NetBuilder::FaultId fid = b.AddFaultProfile(g.bottleneck, CrossShardProfile());
  const PartitionPlan plan = PartitionTopology(b);
  EXPECT_EQ(plan.num_groups, 2);

  std::vector<std::unique_ptr<Simulator>> sim_store;
  std::vector<Simulator*> sims;
  for (int i = 0; i < plan.num_groups; ++i) {
    sim_store.push_back(std::make_unique<Simulator>());
    sims.push_back(sim_store.back().get());
  }
  ShardChannelSet channels;
  std::unique_ptr<Net> net = b.Build(plan, sims, &channels);
  ShardWorkload(net.get(), g, &out);
  ShardRunner::Options opt;
  opt.workers = workers;
  ShardRunner sr(sims, &channels, opt);
  sr.RunUntil(At(4.0));
  out.stats = net->fault_injector(fid)->stats();
  return out;
}

void ExpectSameOutput(const ShardOutput& a, const ShardOutput& b) {
  EXPECT_EQ(a.fct_ms, b.fct_ms);
  EXPECT_EQ(a.stats.passed, b.stats.passed);
  EXPECT_EQ(a.stats.drops_blackout, b.stats.drops_blackout);
}

TEST(FaultInjectorShardTest, FaultedRunIdenticalAcrossShardWorkers) {
  ShardOutput unsharded = RunFaultedUnsharded();
  ASSERT_EQ(unsharded.fct_ms.size(), 16u);  // every flow recovered
  ASSERT_GT(unsharded.stats.drops_blackout, 0u);  // the fault actually fired
  ShardOutput w1 = RunFaultedSharded(1);
  ShardOutput w2 = RunFaultedSharded(2);
  ExpectSameOutput(unsharded, w1);
  ExpectSameOutput(unsharded, w2);
}

}  // namespace
}  // namespace bundler
