// End-to-end determinism tests for the conservative parallel-DES runner
// (src/sim/shard_runner): one fat-tree incast workload run (a) unsharded on
// a single Simulator and (b) sharded via PartitionTopology + ShardRunner at
// several worker counts must complete the same flows with identical FCTs and
// dispatch the same total event count — the `--shards N` byte-identity
// guarantee, at test scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/sim/shard_channel.h"
#include "src/sim/shard_runner.h"
#include "src/sim/simulator.h"
#include "src/topo/fat_tree.h"
#include "src/topo/net_builder.h"
#include "src/topo/partition.h"
#include "src/transport/tcp_flow.h"

namespace bundler {
namespace {

constexpr int kWaves = 5;
constexpr auto kWavePeriod = TimeDelta::Millis(40);
constexpr int64_t kFlowBytes = 96 * 1024;
const TimePoint kHalfway = TimePoint::Zero() + TimeDelta::Seconds(1);
const TimePoint kRunUntil = TimePoint::Zero() + TimeDelta::Seconds(4);

struct RunOutput {
  std::vector<double> fct_ms;
  uint64_t events = 0;
  int flows_created = 0;
};

// Staggered incast onto leaf 0, mirroring the fat_tree_incast scenario at a
// fraction of its size. All flows are created up front (deterministic flow-id
// assignment); starts are deferred via ScheduleAt.
void CreateWorkload(Net* net, const FatTreeConfig& cfg, const FatTreeGraph& g,
                    RunOutput* out) {
  int rr = 0;
  for (int w = 0; w < kWaves; ++w) {
    const TimePoint base =
        TimePoint::Zero() + kWavePeriod * w + TimeDelta::Millis(3);
    for (int l = 1; l < cfg.num_leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        Host* src = net->host(
            g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)]);
        Host* dst = net->host(
            g.hosts[0][static_cast<size_t>(rr % cfg.hosts_per_leaf)]);
        const TimePoint start = base + TimeDelta::Micros((137 * rr) % 1900);
        ++rr;
        TcpFlowParams params;
        params.size_bytes = kFlowBytes;
        params.request_start = start;
        TcpSender* sender = CreateTcpFlow(
            net->flows(), src, dst, params, [out, start](TimePoint end) {
              out->fct_ms.push_back((end - start).ToMillis());
            });
        src->sim()->ScheduleAt(start, [sender]() { sender->Start(); });
      }
    }
  }
  out->flows_created = rr;
}

RunOutput RunUnsharded() {
  RunOutput out;
  FatTreeConfig cfg;
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);
  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  CreateWorkload(net.get(), cfg, g, &out);
  sim.RunUntil(kRunUntil);
  out.events = sim.events_dispatched();
  return out;
}

RunOutput RunSharded(int workers, bool split_run = false) {
  RunOutput out;
  FatTreeConfig cfg;
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);
  const PartitionPlan plan = PartitionTopology(b);
  EXPECT_EQ(plan.num_groups, cfg.num_leaves + 2);

  std::vector<std::unique_ptr<Simulator>> sim_store;
  std::vector<Simulator*> sims;
  for (int i = 0; i < plan.num_groups; ++i) {
    sim_store.push_back(std::make_unique<Simulator>());
    sims.push_back(sim_store.back().get());
  }
  ShardChannelSet channels;
  std::unique_ptr<Net> net = b.Build(plan, sims, &channels);
  CreateWorkload(net.get(), cfg, g, &out);

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
  return out;
}

TEST(ShardRunnerTest, WorkerCountDoesNotChangeResults) {
  RunOutput w1 = RunSharded(1);
  RunOutput w2 = RunSharded(2);
  RunOutput w4 = RunSharded(4);
  ASSERT_GT(w1.flows_created, 0);
  EXPECT_EQ(w1.fct_ms.size(), static_cast<size_t>(w1.flows_created));
  // Exact equality, order included: the per-shard event sequences depend only
  // on the partition, never on the worker interleaving.
  EXPECT_EQ(w1.fct_ms, w2.fct_ms);
  EXPECT_EQ(w1.fct_ms, w4.fct_ms);
  EXPECT_EQ(w1.events, w2.events);
  EXPECT_EQ(w1.events, w4.events);
}

TEST(ShardRunnerTest, MatchesUnshardedSimulation) {
  RunOutput single = RunUnsharded();
  RunOutput sharded = RunSharded(4);
  ASSERT_EQ(single.fct_ms.size(), sharded.fct_ms.size());
  // Completion callbacks run shard-local, so cross-shard completion order may
  // interleave differently from the single-heap run; the flow outcomes and
  // the total event count must still match exactly (boundary arrivals replace
  // the unsharded run's propagation events one for one).
  std::vector<double> a = single.fct_ms;
  std::vector<double> b = sharded.fct_ms;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(single.events, sharded.events);
}

TEST(ShardRunnerTest, RunUntilIsResumable) {
  RunOutput oneshot = RunSharded(2);
  RunOutput resumed = RunSharded(2, /*split_run=*/true);
  EXPECT_EQ(oneshot.fct_ms, resumed.fct_ms);
  EXPECT_EQ(oneshot.events, resumed.events);
}

}  // namespace
}  // namespace bundler
