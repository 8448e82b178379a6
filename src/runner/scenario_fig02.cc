// Figure 2 as a registered scenario: queue shifting. A single long-running
// Cubic flow crosses a 96 Mbit/s, 50 ms dumbbell. Without Bundler the
// standing queue builds at the in-network bottleneck while the edge sits
// idle; with Bundler the bottleneck drains and the queue moves into the
// sendbox scheduler, where the operator's policy applies. Reported per
// variant: post-warmup mean/p95 queue delay at the bottleneck and at the
// edge (sendbox scheduler when enabled, edge-router queue otherwise), plus
// the pooled delay sample series. The QdiscSampler converts sendbox
// occupancy to delay at the shaper's current rate.
#include <memory>

#include "src/app/workload.h"
#include "src/metrics/queue_monitor.h"
#include "src/runner/builtin_scenarios.h"
#include "src/topo/dumbbell.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr double kDurationSec = 60;
constexpr double kWarmupSec = 10;

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  bool bundler_on = point.variant == "bundler";
  BUNDLER_CHECK_MSG(bundler_on || point.variant == "status_quo",
                    "unknown fig02 variant '%s'", point.variant.c_str());

  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(96);
  cfg.rtt = TimeDelta::Millis(50);
  cfg.bundler_enabled = bundler_on;
  Dumbbell net(sim, cfg);

  // The figure uses a single long-running flow; the seed only perturbs CC
  // internals, so trials are nearly identical — one trial per cell suffices.
  StartBulkFlows(sim, net.flows(), net.server(), net.client(), 1,
                 HostCcType::kCubic, TimePoint::Zero());

  // Edge queue sampler: the bundle's sendbox qdisc at its current shaped
  // rate when enabled, else the edge link queue at the (constant) link rate.
  std::unique_ptr<QdiscSampler> edge_sampler;
  if (bundler_on) {
    SendboxManager* sb = net.sendbox();
    edge_sampler = std::make_unique<QdiscSampler>(
        sim, sb->egress_hierarchy().bundle_qdisc(0), TimeDelta::Millis(100),
        [sb]() { return sb->bundle_rate(0); });
  } else {
    Link* edge = net.edge_link(0);
    edge_sampler = std::make_unique<QdiscSampler>(
        sim, edge->queue(), TimeDelta::Millis(100),
        [edge]() { return edge->rate(); });
  }

  sim->RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(kDurationSec));

  TimePoint tail_from = TimePoint::Zero() + TimeDelta::SecondsF(kWarmupSec);
  TimePoint tail_to = TimePoint::Zero() + TimeDelta::SecondsF(kDurationSec);
  const TimeSeries& bottleneck = net.bottleneck_delay()->delay_ms();
  const TimeSeries& edge = edge_sampler->delay_ms();

  TrialResult r;
  r.scalars["bottleneck_delay_mean_ms"] = bottleneck.MeanInRange(tail_from, tail_to);
  r.scalars["bottleneck_delay_p95_ms"] = SeriesQuantileSince(bottleneck, tail_from, 0.95);
  r.scalars["edge_delay_mean_ms"] = edge.MeanInRange(tail_from, tail_to);
  r.scalars["edge_delay_p95_ms"] = SeriesQuantileSince(edge, tail_from, 0.95);
  std::vector<double> bn_samples;
  std::vector<double> edge_samples;
  for (const TimeSeries::Sample& s : bottleneck.samples()) {
    if (s.time >= tail_from) {
      bn_samples.push_back(s.value);
    }
  }
  for (const TimeSeries::Sample& s : edge.samples()) {
    if (s.time >= tail_from) {
      edge_samples.push_back(s.value);
    }
  }
  r.samples["bottleneck_delay_ms"] = std::move(bn_samples);
  r.samples["edge_delay_ms"] = std::move(edge_samples);
  return r;
}

}  // namespace

void RegisterFig02QueueShift(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig02_queue_shift";
  spec.summary =
      "Fig 2: with Bundler the standing queue shifts from the in-network "
      "bottleneck to the sendbox scheduler (single bulk flow)";
  spec.variants = {"status_quo", "bundler"};
  spec.default_trials = 1;
  DumbbellConfig topo;
  topo.bottleneck_rate = Rate::Mbps(96);
  topo.rtt = TimeDelta::Millis(50);
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(topo, "fig02_queue_shift"));
}

}  // namespace runner
}  // namespace bundler
