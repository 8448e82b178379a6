// Multipath observability (§5.2) as two registered scenarios sharing one
// trial body: backlogged Cubic flows inside one bundle are spread by ECMP
// over N load-balanced bottleneck paths whose one-way delays step up by a
// fixed spread per path. Bundler cannot count the paths, but the fraction of
// out-of-order epoch feedback exposes RTT-imbalanced multipathing. Multipath
// auto-disable is off so the raw signal is observed for the whole run.
//
//   fig07_multipath_observe — Fig. 7: four paths (one-way 20/70/120/170 ms)
//       at 96 Mbit/s. Reports the observed RTT spread, the out-of-order
//       fraction, and each path's propagation and measured queue delay.
//   sec76_multipath_threshold — §7.6: the same heuristic over bottleneck
//       rates x RTTs x 1-32 paths. The paper found a maximum single-path
//       reading of 0.4% and a minimum multipath reading of 20%, so a 5%
//       threshold classifies every configuration.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/net/monitors.h"
#include "src/runner/builtin_scenarios.h"
#include "src/topo/dumbbell.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

struct MultipathCell {
  Rate rate;
  TimeDelta rtt;
  int paths;
  TimeDelta spread;  // one-way delay added per path index
  int flows;
  TimeDelta duration;
};

TrialResult RunMultipathTrial(const MultipathCell& cell, const TrialPoint& point,
                              Simulator* sim) {
  BUNDLER_CHECK_MSG(point.variant == "bundler", "unknown multipath variant '%s'",
                    point.variant.c_str());
  DumbbellConfig cfg;
  cfg.bottleneck_rate = cell.rate;
  cfg.rtt = cell.rtt;
  cfg.num_paths = cell.paths;
  cfg.path_delay_spread = cell.spread;
  cfg.sendbox.multipath_detection = false;
  Dumbbell net(sim, cfg);

  // One passive queue monitor per path link.
  std::vector<std::unique_ptr<QueueDelayMonitor>> path_queues;
  for (size_t p = 0; p < net.num_paths(); ++p) {
    path_queues.push_back(std::make_unique<QueueDelayMonitor>());
    net.path_link(p)->AddObserver(path_queues.back().get());
  }

  StartBulkFlows(sim, net.flows(), net.server(), net.client(), cell.flows,
                 HostCcType::kCubic, TimePoint::Zero());

  size_t samples = 0;
  size_t out_of_order = 0;
  QuantileEstimator rtts;
  net.controller()->measurement().SetSampleCallback([&](const EpochSample& s) {
    ++samples;
    out_of_order += s.in_order ? 0 : 1;
    rtts.Add(s.rtt.ToMillis());
  });

  // The controller's own windowed reading, averaged over 1 s steps through
  // the second half of the run; the last step ends the run.
  const double total_s = cell.duration.ToSeconds();
  double reading_sum = 0;
  int readings = 0;
  for (double t = total_s / 2; t <= total_s; t += 1.0) {
    sim->RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(t));
    reading_sum += net.controller()->measurement().OutOfOrderFraction(sim->now());
    ++readings;
  }

  TrialResult r;
  r.scalars["ooo_frac"] = samples == 0 ? 0.0
                                       : static_cast<double>(out_of_order) /
                                             static_cast<double>(samples);
  r.scalars["ooo_frac_avg"] = reading_sum / readings;
  r.scalars["rtt_ms_p5"] = rtts.empty() ? 0.0 : rtts.Quantile(0.05);
  r.scalars["rtt_ms_p95"] = rtts.empty() ? 0.0 : rtts.Quantile(0.95);
  for (size_t p = 0; p < net.num_paths(); ++p) {
    std::string prefix = "path" + std::to_string(p);
    r.scalars[prefix + "_prop_ms"] = net.path_link(p)->prop_delay().ToMillis();
    r.scalars[prefix + "_queue_ms_mean"] = path_queues[p]->delay_ms().MeanInRange(
        TimePoint::Zero(), TimePoint::Zero() + cell.duration);
  }
  return r;
}

}  // namespace

void RegisterFig07MultipathObserve(ScenarioRegistry* registry) {
  const MultipathCell cell = {Rate::Mbps(96), TimeDelta::Millis(40), 4,
                              TimeDelta::Millis(50), 32, TimeDelta::Seconds(60)};
  ScenarioSpec spec;
  spec.name = "fig07_multipath_observe";
  spec.summary =
      "Fig 7: four RTT-imbalanced ECMP paths; the out-of-order epoch feedback "
      "fraction exposes multipathing (paper: >= 20%, threshold 5%)";
  spec.variants = {"bundler"};
  // No random draws: bulk flows start together and ECMP hashes flow keys.
  spec.default_trials = 1;
  DumbbellConfig topo;
  topo.bottleneck_rate = cell.rate;
  topo.rtt = cell.rtt;
  topo.num_paths = cell.paths;
  topo.path_delay_spread = cell.spread;
  registry->Register(
      std::move(spec),
      [cell](const TrialPoint& point, Simulator* sim) {
        return RunMultipathTrial(cell, point, sim);
      },
      DumbbellTopology(topo, "fig07_multipath_observe"));
}

void RegisterSec76MultipathThreshold(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "sec76_multipath_threshold";
  spec.summary =
      "§7.6: out-of-order fraction over rate x RTT x 1-32 paths (paper: max "
      "single-path 0.4%, min multipath 20%; a 5% threshold separates them)";
  spec.variants = {"bundler"};
  spec.axes = {{"rate_mbps", {24, 96}},
               {"rtt_ms", {20, 100, 300}},
               {"paths", {1, 2, 4, 8, 32}}};
  spec.default_trials = 1;
  DumbbellConfig topo;
  topo.num_paths = 4;
  topo.path_delay_spread = topo.rtt;
  registry->Register(
      std::move(spec),
      [](const TrialPoint& point, Simulator* sim) {
        // Paths differ in delay by one RTT each, as in the paper's emulation;
        // flows scale with the path count so every path carries traffic.
        TimeDelta rtt = TimeDelta::MillisF(point.Param("rtt_ms"));
        int paths = static_cast<int>(point.Param("paths"));
        MultipathCell cell = {Rate::Mbps(point.Param("rate_mbps")), rtt, paths, rtt,
                              std::max(8, 4 * paths), TimeDelta::Seconds(30)};
        return RunMultipathTrial(cell, point, sim);
      },
      DumbbellTopology(topo, "sec76_multipath_threshold"));
}

}  // namespace runner
}  // namespace bundler
