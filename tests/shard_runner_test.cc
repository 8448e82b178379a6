// End-to-end determinism tests for the conservative parallel-DES runner
// (src/sim/shard_runner): an incast workload on a leaf/spine fabric run
// sharded via PartitionTopology + ShardRunner must give identical FCTs, in
// order, and event totals at every worker count — ShardRunner's
// byte-identity guarantee, at test scale — and the event total and FCT
// distribution of an unsharded run on a single Simulator. The fabric is the
// fat-tree preset and, for the generated-topology test, seeded random
// leaf/spine graphs whose fabric links have different delays (so channels
// with different lookaheads meet at one shard). A hand-built four-shard graph
// pins the arrival merge order itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/node.h"
#include "src/obs/trace.h"
#include "src/sim/shard_channel.h"
#include "src/sim/shard_runner.h"
#include "src/sim/simulator.h"
#include "src/topo/fat_tree.h"
#include "src/topo/net_builder.h"
#include "src/topo/partition.h"
#include "src/transport/tcp_flow.h"
#include "src/util/random.h"

namespace bundler {
namespace {

const TimePoint kHalfway = TimePoint::Zero() + TimeDelta::Seconds(1);
const TimePoint kRunUntil = TimePoint::Zero() + TimeDelta::Seconds(4);

struct FlowSpec {
  NetBuilder::NodeId src;
  NetBuilder::NodeId dst;
  TimePoint start;
  int64_t bytes;
};

// A leaf/spine graph, the number of shards it must partition into, and the
// flows to run on it.
struct Fabric {
  NetBuilder builder;
  int num_groups = 0;
  std::vector<FlowSpec> flows;
};

struct RunOutput {
  std::vector<double> fct_ms;
  uint64_t events = 0;
  // Sharded runs: some shard delivered two arrivals with equal (deliver,
  // sent) on different channels (see CrossChannelTie).
  bool cross_channel_tie = false;
};

// Staggered incast onto leaf 0 of the fat-tree preset: 5 waves, every host
// on the other leaves sends 96 KB, a small version of bench/e2e's
// fat_tree_sharded workload.
Fabric FatTreeFabric() {
  constexpr int kWaves = 5;
  constexpr auto kWavePeriod = TimeDelta::Millis(40);
  FatTreeConfig cfg;
  FatTreeGraph g;
  Fabric f{FatTreeBuilder(cfg, &g), cfg.num_leaves + 2, {}};
  int rr = 0;
  for (int w = 0; w < kWaves; ++w) {
    const TimePoint base =
        TimePoint::Zero() + kWavePeriod * w + TimeDelta::Millis(3);
    for (int l = 1; l < cfg.num_leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        f.flows.push_back(FlowSpec{
            g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)],
            g.hosts[0][static_cast<size_t>(rr % cfg.hosts_per_leaf)],
            base + TimeDelta::Micros((137 * rr) % 1900), 96 * 1024});
        ++rr;
      }
    }
  }
  return f;
}

// A seeded leaf/spine graph: 2-5 leaves with 1-3 hosts each under 1-3
// spines, every fabric link's delay drawn from {1, 2, 3} ms, and three
// incast waves from every host off a randomly chosen target leaf.
Fabric GeneratedFabric(uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng.NextU64() % static_cast<uint64_t>(hi - lo + 1));
  };
  const int leaves = pick(2, 5);
  const int spines = pick(1, 3);
  Fabric f;
  f.num_groups = leaves + spines;
  NetBuilder& b = f.builder;
  std::vector<NetBuilder::NodeId> spine_ids;
  for (int s = 0; s < spines; ++s) {
    spine_ids.push_back(b.AddRouter("spine" + std::to_string(s)));
  }
  NetBuilder::LinkSpec fabric;
  fabric.rate = Rate::Mbps(400);
  fabric.buffer_bytes = 512 * 1024;
  NetBuilder::LinkSpec access;
  access.rate = Rate::Gbps(1);
  access.buffer_bytes = 4 * 1024 * 1024;
  std::vector<std::vector<NetBuilder::NodeId>> hosts(static_cast<size_t>(leaves));
  for (int l = 0; l < leaves; ++l) {
    const NetBuilder::NodeId leaf = b.AddRouter("leaf" + std::to_string(l));
    for (int s = 0; s < spines; ++s) {
      fabric.delay = TimeDelta::Millis(pick(1, 3));
      b.AddLink(leaf, spine_ids[static_cast<size_t>(s)], fabric);
      fabric.delay = TimeDelta::Millis(pick(1, 3));
      b.AddLink(spine_ids[static_cast<size_t>(s)], leaf, fabric);
    }
    const int per_leaf = pick(1, 3);
    for (int h = 0; h < per_leaf; ++h) {
      const NetBuilder::NodeId host =
          b.AddSite("h" + std::to_string(l) + "_" + std::to_string(h),
                    FatTreeSite(l, h));
      b.AddLink(host, leaf, access);
      b.AddWire(leaf, host);
      hosts[static_cast<size_t>(l)].push_back(host);
    }
  }
  const auto& sinks = hosts[static_cast<size_t>(pick(0, leaves - 1))];
  for (int w = 0; w < 3; ++w) {
    const TimePoint base = TimePoint::Zero() + TimeDelta::Millis(3 + 40 * w);
    for (const auto& leaf_hosts : hosts) {
      if (&leaf_hosts == &sinks) {
        continue;
      }
      for (NetBuilder::NodeId src : leaf_hosts) {
        f.flows.push_back(FlowSpec{
            src, sinks[static_cast<size_t>(pick(0, static_cast<int>(sinks.size()) - 1))],
            base + TimeDelta::Micros(pick(0, 1999)), 32 * 1024 * pick(1, 3)});
      }
    }
  }
  return f;
}

// All flows are created up front (deterministic flow-id assignment); starts
// are deferred via ScheduleAt.
void CreateWorkload(Net* net, const Fabric& f, RunOutput* out) {
  for (const FlowSpec& spec : f.flows) {
    Host* src = net->host(spec.src);
    TcpFlowParams params;
    params.size_bytes = spec.bytes;
    params.request_start = spec.start;
    const TimePoint start = spec.start;
    TcpSender* sender = CreateTcpFlow(
        net->flows(), src, net->host(spec.dst), params,
        [out, start](TimePoint end) { out->fct_ms.push_back((end - start).ToMillis()); });
    src->sim()->ScheduleAt(start, [sender]() { sender->Start(); });
  }
}

RunOutput RunUnsharded(const Fabric& f) {
  RunOutput out;
  Simulator sim;
  std::unique_ptr<Net> net = f.builder.Build(&sim);
  CreateWorkload(net.get(), f, &out);
  sim.RunUntil(kRunUntil);
  out.events = sim.events_dispatched();
  return out;
}

// True when some shard delivered two arrivals with equal (deliver, sent) on
// different channels. The runner delivers those in channel-id order; an
// unsharded run delivers them in the order their packets started to
// serialize, which depends on the global event order no shard sees, so no
// fixed rule reproduces it. Read from the kShard trace: a shard delivers in key
// order, so such a pair is adjacent among its deliver records.
bool CrossChannelTie(const std::vector<Simulator*>& sims) {
  for (Simulator* s : sims) {
    EXPECT_EQ(s->trace().dropped(), 0u) << "trace ring too small to see every arrival";
    const std::vector<obs::TraceRecord> records = s->trace().Snapshot();
    const obs::TraceRecord* prev = nullptr;
    for (const obs::TraceRecord& r : records) {
      if (r.ev != static_cast<uint16_t>(obs::TraceEv::kShardDeliver)) {
        continue;
      }
      if (prev != nullptr && prev->t_ns == r.t_ns && prev->c == r.c && prev->a != r.a) {
        return true;
      }
      prev = &r;
    }
  }
  return false;
}

RunOutput RunSharded(const Fabric& f, int workers, bool split_run = false) {
  RunOutput out;
  const PartitionPlan plan = PartitionTopology(f.builder);
  EXPECT_EQ(plan.num_groups, f.num_groups);

  std::vector<std::unique_ptr<Simulator>> sim_store;
  std::vector<Simulator*> sims;
  for (int i = 0; i < plan.num_groups; ++i) {
    sim_store.push_back(std::make_unique<Simulator>());
    sims.push_back(sim_store.back().get());
    sims.back()->trace().Enable(obs::CatBit(obs::TraceCat::kShard), size_t{1} << 15);
  }
  ShardChannelSet channels;
  std::unique_ptr<Net> net = f.builder.Build(plan, sims, &channels);
  CreateWorkload(net.get(), f, &out);

  ShardRunner::Options opt;
  opt.workers = workers;
  ShardRunner sr(sims, &channels, opt);
  if (split_run) {
    sr.RunUntil(kHalfway);  // resumable: two legs must equal one
  }
  sr.RunUntil(kRunUntil);
  for (Simulator* s : sims) {
    out.events += s->events_dispatched();
  }
  out.cross_channel_tie = CrossChannelTie(sims);
  return out;
}

TEST(ShardRunnerTest, WorkerCountDoesNotChangeResults) {
  const Fabric f = FatTreeFabric();
  RunOutput w1 = RunSharded(f, 1);
  RunOutput w2 = RunSharded(f, 2);
  RunOutput w4 = RunSharded(f, 4);
  ASSERT_FALSE(f.flows.empty());
  EXPECT_EQ(w1.fct_ms.size(), f.flows.size());
  // Exact equality, order included: the per-shard event sequences depend only
  // on the partition, never on the worker interleaving.
  EXPECT_EQ(w1.fct_ms, w2.fct_ms);
  EXPECT_EQ(w1.fct_ms, w4.fct_ms);
  EXPECT_EQ(w1.events, w2.events);
  EXPECT_EQ(w1.events, w4.events);
}

// Completion callbacks run shard-local, so cross-shard completion order may
// interleave differently from the single-heap run; the flow outcomes and the
// total event count must still match exactly. A boundary arrival replaces
// the unsharded run's delivery one for one, and with packets queued alike
// both runs schedule the same transmit-dones.
void ExpectSameOutcomes(const RunOutput& single, const RunOutput& sharded) {
  std::vector<double> a = single.fct_ms;
  std::vector<double> b = sharded.fct_ms;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(single.events, sharded.events);
}

TEST(ShardRunnerTest, MatchesUnshardedSimulation) {
  const Fabric f = FatTreeFabric();
  RunOutput single = RunUnsharded(f);
  RunOutput sharded = RunSharded(f, 4);
  ASSERT_EQ(single.fct_ms.size(), sharded.fct_ms.size());
  ExpectSameOutcomes(single, sharded);
}

TEST(ShardRunnerTest, RunUntilIsResumable) {
  const Fabric f = FatTreeFabric();
  RunOutput oneshot = RunSharded(f, 2);
  RunOutput resumed = RunSharded(f, 2, /*split_run=*/true);
  EXPECT_EQ(oneshot.fct_ms, resumed.fct_ms);
  EXPECT_EQ(oneshot.events, resumed.events);
}

// Eight seeded fabrics. Every seed must give the same FCTs, in the same
// order, and the same event total at 1, 2 and 4 workers. The unsharded run's
// sorted FCTs and event total must match too, unless the sharded run hit a
// cross-channel tie (CrossChannelTie): then the two runs may queue those
// packets in different orders, and only the number of completed flows is
// compared. The event totals differ there because a transmit-done exists
// only while a packet waits behind another: seeds 4 and 7 tie, and their
// runs dispatch identical events up to the tie, the same deliveries overall,
// and one transmit-done more or fewer (10,354 vs 10,353 and 8,893 vs
// 8,894 events).
TEST(ShardRunnerTest, GeneratedFabricsAreDeterministic) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Fabric f = GeneratedFabric(seed);
    const RunOutput w1 = RunSharded(f, 1);
    ASSERT_EQ(w1.fct_ms.size(), f.flows.size());
    for (int workers : {2, 4}) {
      const RunOutput wk = RunSharded(f, workers);
      EXPECT_EQ(wk.fct_ms, w1.fct_ms) << workers << " workers";
      EXPECT_EQ(wk.events, w1.events) << workers << " workers";
    }
    const RunOutput single = RunUnsharded(f);
    EXPECT_EQ(single.fct_ms.size(), w1.fct_ms.size());
    if (!w1.cross_channel_tie) {
      ExpectSameOutcomes(single, w1);
    }
  }
}

// --- Merge order on a hand-built graph -----------------------------------------

// One delivered boundary packet, keyed as the runner orders arrivals: the
// defaulted comparison is (deliver, sent, channel, seq).
struct Arrival {
  int64_t deliver_ns;
  int64_t sent_ns;
  uint32_t channel;
  uint64_t seq;
  auto operator<=>(const Arrival&) const = default;
};

constexpr int kUpstreams = 3;
constexpr int kConsumer = kUpstreams;
// Channel u carries shard u's sends to the consumer.
const TimeDelta kLookahead[kUpstreams] = {TimeDelta::Millis(1), TimeDelta::Millis(2),
                                          TimeDelta::Millis(2)};

struct MergeRun {
  std::vector<Arrival> log;  // written only by the consumer's worker
  size_t sent = 0;
};

// Three upstream shards feed one consumer. Each send stamps its key into the
// packet (id = seq, seq = sent time, flow_id = channel), and the consumer
// logs the key at the instant it is delivered. Upstream 0 is event-dense (a
// local event every 5 us), so its clock rises one step budget at a time and
// holds the consumer's bound, while upstream 1 sends a 40-message burst that
// the consumer drains long before it may deliver it.
MergeRun RunMergeRig(int workers) {
  std::vector<std::unique_ptr<Simulator>> sim_store;
  std::vector<Simulator*> sims;
  for (int i = 0; i <= kConsumer; ++i) {
    sim_store.push_back(std::make_unique<Simulator>());
    sims.push_back(sim_store.back().get());
  }
  MergeRun out;
  Simulator* consumer = sims[kConsumer];
  LambdaHandler sink([&out, consumer](Packet p) {
    out.log.push_back(Arrival{consumer->now().nanos(), p.seq,
                              static_cast<uint32_t>(p.flow_id), p.id});
  });
  ShardChannelSet channels;
  std::vector<ShardChannel*> ch;
  for (int u = 0; u < kUpstreams; ++u) {
    ShardChannel::Spec spec;
    spec.id = static_cast<uint32_t>(u);
    spec.src_shard = u;
    spec.dst_shard = kConsumer;
    spec.lookahead_ns = kLookahead[u].nanos();
    spec.dst = &sink;
    spec.src_sim = sims[static_cast<size_t>(u)];
    ch.push_back(channels.Add(spec));
  }
  uint64_t next_seq[kUpstreams] = {};
  const auto send_at = [&](int u, int64_t at_us) {
    Simulator* sim = sims[static_cast<size_t>(u)];
    ShardChannel* c = ch[static_cast<size_t>(u)];
    uint64_t* seq = &next_seq[u];
    sim->ScheduleAt(TimePoint::Zero() + TimeDelta::Micros(at_us), [sim, c, seq, u] {
      Packet p;
      p.id = (*seq)++;
      p.seq = sim->now().nanos();
      p.flow_id = static_cast<uint64_t>(u);
      c->SendBoundary(sim->now(), kLookahead[u], std::move(p));
    });
    ++out.sent;
  };
  // Equal deliver, different sent: sent at 1 ms on a 2 ms channel against
  // sent at 2 ms on the 1 ms channel.
  send_at(1, 1000);
  send_at(0, 2000);
  // Equal deliver and sent on two channels.
  send_at(1, 5000);
  send_at(2, 5000);
  // Two same-instant sends on one channel.
  send_at(1, 6000);
  send_at(1, 6000);
  // A three-way tie on deliver.
  send_at(2, 8000);
  send_at(1, 8000);
  send_at(0, 9000);
  // The sparse burst, with channel 2 and the dense upstream's sends landing
  // on the same deliver instants.
  for (int64_t t = 10000; t < 30000; t += 500) {
    send_at(1, t);
  }
  for (int64_t t = 10000; t < 30000; t += 1000) {
    send_at(2, t);
    send_at(0, t + 1000);
  }
  for (int64_t t = 0; t < 40000; t += 5) {
    sims[0]->ScheduleAt(TimePoint::Zero() + TimeDelta::Micros(t), [] {});
  }
  ShardRunner::Options opt;
  opt.workers = workers;
  ShardRunner sr(sims, &channels, opt);
  sr.RunUntil(TimePoint::Zero() + TimeDelta::Millis(50));
  return out;
}

TEST(ShardRunnerTest, MergesArrivalsInKeyOrderForAnyWorkerCount) {
  const MergeRun w1 = RunMergeRig(1);
  ASSERT_EQ(w1.log.size(), w1.sent);
  std::vector<Arrival> sorted = w1.log;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(w1.log == sorted) << "arrivals delivered out of key order";
  for (const Arrival& a : w1.log) {
    EXPECT_EQ(a.deliver_ns - a.sent_ns, kLookahead[a.channel].nanos());
  }
  for (int workers : {2, 3}) {
    EXPECT_TRUE(RunMergeRig(workers).log == w1.log) << workers << " workers";
  }
}

}  // namespace
}  // namespace bundler
