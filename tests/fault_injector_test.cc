// FaultInjector (src/net/fault_injector.h): every stochastic mechanism is
// mirrored against a reference model driving an identically-seeded Rng in the
// injector's documented draw order (Bernoulli: one draw per targeted packet;
// Gilbert-Elliott: loss draw then transition draw; reorder: one hold draw per
// surviving targeted packet while the slot is free), so the tests pin the
// exact RNG contract that makes faulted runs reproducible. Plus: blackout
// window edge semantics, bounded reorder displacement, passive construction,
// profile-validation death tests, and the end-to-end guarantee that a faulted
// topology produces identical results unsharded and sharded at any worker
// count.
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
#include "src/util/random.h"
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

TEST(FaultInjectorTest, BernoulliLossMatchesReferenceModel) {
  FaultProfileSpec spec;
  spec.loss_prob = 0.3;
  spec.seed = 42;
  Harness h(spec);

  Rng ref(42);
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < 500; ++i) {
    h.inj.HandlePacket(DataPacket(i));
    if (!(ref.NextDouble() < 0.3)) {
      expected.push_back(i);
    }
  }
  ASSERT_EQ(h.arrivals.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(h.arrivals[i].second, expected[i]);
  }
  EXPECT_EQ(h.inj.stats().passed, expected.size());
  EXPECT_EQ(h.inj.stats().drops_random, 500 - expected.size());
  EXPECT_EQ(h.inj.stats().drops_burst, 0u);
}

TEST(FaultInjectorTest, GilbertElliottMatchesReferenceModel) {
  FaultProfileSpec spec;
  spec.ge_p_good_to_bad = 0.05;
  spec.ge_p_bad_to_good = 0.3;
  spec.ge_loss_good = 0.01;
  spec.ge_loss_bad = 0.9;
  spec.seed = 7;
  Harness h(spec);

  // Reference chain: loss draw against the *current* state's probability,
  // then one transition draw — the order the injector documents.
  Rng ref(7);
  bool bad = false;
  std::vector<int64_t> expected;
  uint64_t losses = 0;
  for (int64_t i = 0; i < 2000; ++i) {
    h.inj.HandlePacket(DataPacket(i));
    const bool lost = ref.NextDouble() < (bad ? 0.9 : 0.01);
    if (ref.NextDouble() < (bad ? 0.3 : 0.05)) {
      bad = !bad;
    }
    if (lost) {
      ++losses;
    } else {
      expected.push_back(i);
    }
  }
  ASSERT_GT(losses, 0u);  // the chain must actually visit the bad state
  ASSERT_EQ(h.arrivals.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(h.arrivals[i].second, expected[i]);
  }
  EXPECT_EQ(h.inj.stats().drops_burst, losses);
  EXPECT_EQ(h.inj.stats().drops_random, 0u);
}

// Ctl targeting: data packets neither consume RNG draws nor count in stats,
// so the fault sequence seen by control messages is independent of how much
// data traffic shares the link.
TEST(FaultInjectorTest, CtlTargetingConsumesNoDrawsForData) {
  FaultProfileSpec spec;
  spec.target = FaultTarget::kCtl;
  spec.loss_prob = 0.5;
  spec.seed = 11;
  Harness h(spec);

  Rng ref(11);
  std::vector<std::pair<PacketType, int64_t>> expected;
  for (int64_t i = 0; i < 300; ++i) {
    // Interleave: data, feedback, data, epoch ctl, ...
    h.inj.HandlePacket(DataPacket(i));
    expected.emplace_back(PacketType::kData, i);
    const PacketType ctl =
        i % 2 == 0 ? PacketType::kBundlerFeedback : PacketType::kBundlerEpochCtl;
    h.inj.HandlePacket(CtlPacket(ctl, i));
    if (!(ref.NextDouble() < 0.5)) {
      expected.emplace_back(ctl, i);
    }
  }
  EXPECT_EQ(h.arrivals, expected);
  // Untargeted data is not even counted as "passed": the stats describe the
  // targeted population only.
  EXPECT_EQ(h.inj.stats().passed + h.inj.stats().drops_random, 300u);
}

TEST(FaultInjectorTest, FeedbackOnlyTargetSparesEpochCtl) {
  FaultProfileSpec spec;
  spec.target = FaultTarget::kFeedbackOnly;
  spec.loss_prob = 1.0;
  Harness h(spec);

  h.inj.HandlePacket(CtlPacket(PacketType::kBundlerFeedback, 0));
  h.inj.HandlePacket(CtlPacket(PacketType::kBundlerEpochCtl, 1));
  h.inj.HandlePacket(DataPacket(2));
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[0].first, PacketType::kBundlerEpochCtl);
  EXPECT_EQ(h.arrivals[1].first, PacketType::kData);
  EXPECT_EQ(h.inj.stats().drops_random, 1u);
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

TEST(FaultInjectorTest, ReorderDisplacementBoundedByDepth) {
  FaultProfileSpec spec;
  spec.reorder_prob = 1.0;  // every eligible packet is held
  spec.reorder_depth = 3;
  Harness h(spec);

  for (int64_t i = 0; i < 8; ++i) {
    h.inj.HandlePacket(DataPacket(i));
  }
  // Packet 0 is held; 1..3 overtake it (displacement == depth), which
  // releases it. Packet 4 is then held and 5..7 repeat the pattern.
  std::vector<int64_t> got;
  for (const auto& [type, seq] : h.arrivals) {
    got.push_back(seq);
  }
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3, 0, 5, 6, 7, 4}));
  EXPECT_EQ(h.inj.stats().held, 2u);
  EXPECT_EQ(h.inj.stats().released_depth, 2u);
  EXPECT_EQ(h.inj.stats().released_flush, 0u);
  EXPECT_FALSE(h.inj.holding());
}

TEST(FaultInjectorTest, ReorderFlushReleasesWhenTrafficStops) {
  FaultProfileSpec spec;
  spec.reorder_prob = 1.0;
  spec.reorder_depth = 8;
  spec.reorder_flush = TimeDelta::Millis(25);
  Harness h(spec);

  h.inj.HandlePacket(DataPacket(0));
  EXPECT_TRUE(h.inj.holding());
  EXPECT_TRUE(h.arrivals.empty());
  h.sim.RunAll();  // only the flush timer is pending
  ASSERT_EQ(h.arrivals.size(), 1u);
  EXPECT_EQ(h.arrivals[0].second, 0);
  EXPECT_EQ(h.sim.now(), At(0.025));
  EXPECT_EQ(h.inj.stats().released_flush, 1u);
  EXPECT_FALSE(h.inj.holding());
}

// The faulted datapath allocates nothing once warm: every packet pays the
// targeting check, a Gilbert-Elliott loss draw and transition draw, and ~10%
// of survivors pass through the bounded reorder hold slot, whose depth
// releases cancel the pooled flush timer. Simulated time advances 1 us per
// packet, so flush timers that stay armed fire and recycle their slot.
TEST(FaultInjectorTest, FaultedDatapathAllocatesNothing) {
  FaultProfileSpec spec;
  spec.ge_p_good_to_bad = 0.05;
  spec.ge_p_bad_to_good = 0.3;
  spec.ge_loss_good = 0.0;
  spec.ge_loss_bad = 1.0;
  spec.reorder_prob = 0.1;
  spec.reorder_depth = 8;
  spec.seed = 12345;
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
  EXPECT_GT(inj.stats().drops_burst, 0u);
  EXPECT_GT(inj.stats().released_depth, 0u);
  EXPECT_GT(delivered, 0u);
}

// Construction schedules nothing: declaring fault profiles must not perturb
// event-queue seeding of an otherwise identical run.
TEST(FaultInjectorTest, ConstructionIsPassive) {
  FaultProfileSpec spec;
  spec.loss_prob = 0.5;
  spec.reorder_prob = 0.5;
  spec.reorder_depth = 4;
  spec.blackouts = {{TimeDelta::Millis(1), TimeDelta::Millis(2)}};
  Harness h(spec);
  h.sim.RunAll();
  EXPECT_EQ(h.sim.events_dispatched(), 0u);
}

TEST(FaultProfileDeathTest, InvalidProfilesDie) {
  FaultProfileSpec spec;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "no mechanism");

  spec.loss_prob = 1.5;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "loss_prob");

  spec.loss_prob = 0.5;
  spec.ge_p_good_to_bad = 0.5;
  spec.ge_p_bad_to_good = 0.5;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "mutually");

  spec.loss_prob = 0.0;
  spec.ge_p_bad_to_good = 0.0;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "transition");

  spec.ge_p_good_to_bad = 0.0;
  spec.blackouts = {{TimeDelta::Millis(5), TimeDelta::Millis(5)}};
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "start < end");

  spec.blackouts = {{TimeDelta::Millis(5), TimeDelta::Millis(10)},
                    {TimeDelta::Millis(8), TimeDelta::Millis(12)}};
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "non-overlapping");

  spec.blackouts.clear();
  spec.reorder_prob = 0.5;
  spec.reorder_depth = 99;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "reorder_depth");
}

// --- Sharded determinism -------------------------------------------------
//
// A faulted topology must produce identical results unsharded and sharded at
// any worker count: the injector sits on a link's delivery chain, whose
// arrival order is the repo-wide determinism contract. Uses the non-bundled
// dumbbell (partitions into sender/receiver shards across the faulted
// bottleneck) with burst loss + reordering active.

struct ShardOutput {
  std::vector<double> fct_ms;
  FaultInjector::Stats stats;
};

FaultProfileSpec CrossShardProfile() {
  FaultProfileSpec spec;
  spec.ge_p_good_to_bad = 0.02;
  spec.ge_p_bad_to_good = 0.25;
  spec.ge_loss_good = 0.0;
  spec.ge_loss_bad = 1.0;
  spec.reorder_prob = 0.05;
  spec.reorder_depth = 4;
  spec.seed = 99;
  return spec;
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
  EXPECT_EQ(a.stats.drops_burst, b.stats.drops_burst);
  EXPECT_EQ(a.stats.drops_random, b.stats.drops_random);
  EXPECT_EQ(a.stats.held, b.stats.held);
  EXPECT_EQ(a.stats.released_depth, b.stats.released_depth);
  EXPECT_EQ(a.stats.released_flush, b.stats.released_flush);
}

TEST(FaultInjectorShardTest, FaultedRunIdenticalAcrossShardWorkers) {
  ShardOutput unsharded = RunFaultedUnsharded();
  ASSERT_GT(unsharded.fct_ms.size(), 0u);
  ASSERT_GT(unsharded.stats.drops_burst, 0u);  // the fault actually fired
  ASSERT_GT(unsharded.stats.held, 0u);
  ShardOutput w1 = RunFaultedSharded(1);
  ShardOutput w2 = RunFaultedSharded(2);
  ExpectSameOutput(unsharded, w1);
  ExpectSameOutput(unsharded, w2);
}

}  // namespace
}  // namespace bundler
