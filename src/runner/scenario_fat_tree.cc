// fat_tree_incast: staggered TCP incast waves across a leaf/spine fabric —
// the first scenario whose topology genuinely decomposes for the parallel-DES
// runner (src/sim/shard_runner.h). The fabric partitions into num_leaves + 2
// shards; `--shards N` runs them on N workers with byte-identical results.
//
// Workload: every host on leaves 1..L-1 fires size-fixed flows at leaf 0's
// hosts (round-robin) in periodic waves with seeded per-flow start jitter —
// a classic incast onto leaf 0's downlinks. All flows are created up front
// with deferred starts, so flow-id assignment is single-threaded and
// deterministic; only packet events cross shards mid-run. A flow waiting to
// start holds its sender handle and receiver; its connection is carved on
// the source shard's worker when it starts. Each completed flow releases all
// three FlowTable blocks (flow.releases counts objects, not flows), so the
// arena holds the running flows plus 288 bytes per waiting one, not every
// flow the trial creates.
#include <memory>
#include <string>
#include <vector>

#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/sim/shard_channel.h"
#include "src/sim/shard_runner.h"
#include "src/topo/fat_tree.h"
#include "src/topo/partition.h"
#include "src/transport/tcp_flow.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

FatTreeConfig IncastFabric() {
  return FatTreeConfig{};  // 4 leaves x 2 hosts over 2 spines (fat_tree.h)
}

constexpr int kWaves = 30;
constexpr auto kWavePeriod = TimeDelta::Millis(50);
constexpr int64_t kFlowBytes = 256 * 1024;
constexpr auto kRunUntil = TimeDelta::Seconds(5);

TrialResult RunTrial(const TrialPoint& point) {
  const FatTreeConfig cfg = IncastFabric();
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);
  const PartitionPlan plan = PartitionTopology(b);
  BUNDLER_CHECK(plan.num_groups == cfg.num_leaves + 2);

  std::vector<std::unique_ptr<Simulator>> sim_store;
  std::vector<Simulator*> sims;
  for (int i = 0; i < plan.num_groups; ++i) {
    sim_store.push_back(std::make_unique<Simulator>());
    sims.push_back(sim_store.back().get());
  }
  ShardChannelSet channels;
  std::unique_ptr<Net> net = b.Build(plan, sims, &channels);
  BeginTrialObs(sims);

  // Seeded start jitter (splitmix-style): spreads each wave's flows over a
  // couple of milliseconds so the incast is bursty but not lockstep.
  uint64_t rng = point.seed * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL;
  auto jitter = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return TimeDelta::Micros(static_cast<int64_t>((rng >> 33) % 2000));
  };

  // All completions land in leaf 0's shard, so one plain vector is safe; its
  // order is part of the deterministic per-shard event sequence.
  std::vector<double> fct_ms;
  int rr = 0;
  for (int w = 0; w < kWaves; ++w) {
    const TimePoint base = TimePoint::Zero() + kWavePeriod * w + TimeDelta::Millis(5);
    for (int l = 1; l < cfg.num_leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        Host* src = net->host(g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)]);
        Host* dst = net->host(
            g.hosts[0][static_cast<size_t>(rr++ % cfg.hosts_per_leaf)]);
        const TimePoint start = base + jitter();
        TcpFlowParams params;
        params.size_bytes = kFlowBytes;
        params.request_start = start;
        TcpSender* sender =
            CreateTcpFlow(net->flows(), src, dst, params,
                          [&fct_ms, start](TimePoint end) {
                            fct_ms.push_back((end - start).ToMillis());
                          });
        src->sim()->ScheduleAt(start, [sender]() { sender->Start(); });
      }
    }
  }
  const size_t flows_created = static_cast<size_t>(rr);

  ShardRunner::Options opt;
  opt.workers = point.shards > 0 ? point.shards : 1;
  ShardRunner sr(sims, &channels, opt);
  sr.RunUntil(TimePoint::Zero() + kRunUntil);

  TrialResult r;
  QuantileEstimator q;
  for (double v : fct_ms) {
    q.Add(v);
  }
  r.samples["fct_ms"] = fct_ms;
  r.scalars["fct_ms_p50"] = q.empty() ? 0.0 : q.Median();
  r.scalars["fct_ms_p99"] = q.empty() ? 0.0 : q.Quantile(0.99);
  r.scalars["flows_completed"] = static_cast<double>(fct_ms.size());
  r.scalars["flows_created"] = static_cast<double>(flows_created);
  // Intrinsic shard count (partition-determined, never the worker count).
  r.scalars["shards"] = static_cast<double>(plan.num_groups);
  r.scalars["flow.releases"] = static_cast<double>(net->flows()->releases());
  EndTrialObs(sims, point, &r);
  return r;
}

}  // namespace

void RegisterFatTreeIncast(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fat_tree_incast";
  spec.summary =
      "Staggered TCP incast onto leaf 0 of a 4-leaf/2-spine fabric; "
      "partitions into 6 shards for the parallel-DES runner (--shards N)";
  spec.variants = {"default"};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(FatTreeBuilder(IncastFabric()), "fat_tree_incast");
  });
}

}  // namespace runner
}  // namespace bundler
