// Figure 12 as a registered scenario: bundle throughput against varying
// numbers of persistent elastic (buffer-filling) cross flows. The bundle
// holds a fixed 20 backlogged Cubic flows; competing unbundled backlogged
// Cubic flows sweep over {10, 30, 50} (the `competing_flows` axis). The
// paper reports the bundled flows losing 18% throughput on average relative
// to their fair share under Status Quo — 12% lower with 10 competing flows
// up to 22% lower with 50 — because the sendbox holds back a small probing
// queue even in pass-through mode (§5.1).
#include "src/runner/builtin_scenarios.h"
#include "src/topo/scenario.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  bool bundler_on = point.variant == "bundler";
  BUNDLER_CHECK_MSG(bundler_on || point.variant == "status_quo",
                    "unknown fig12 variant '%s'", point.variant.c_str());

  ExperimentConfig cfg = PaperExperimentDefaults(bundler_on, point.seed);
  cfg.bundle_web_load = {Rate::Zero()};
  cfg.bundle_bulk_flows = 20;
  cfg.cross_bulk_flows = static_cast<int>(point.Param("competing_flows"));
  cfg.duration = TimeDelta::Seconds(60);
  cfg.warmup = TimeDelta::Seconds(15);
  Experiment e(sim, cfg);
  e.Run();

  TrialResult r;
  r.scalars["bundle_tput_mbps"] =
      e.net()
          ->bundle_rate_meter()
          ->AverageRate(TimePoint::Zero() + cfg.warmup, TimePoint::Zero() + cfg.duration)
          .Mbps();
  return r;
}

}  // namespace

void RegisterFig12ElasticCrossSweep(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig12_elastic_cross_sweep";
  spec.summary =
      "Fig 12: persistent elastic cross flows (bundle = 20 backlogged); "
      "bundle throughput ~18% below StatusQuo on average across 10-50 flows";
  spec.variants = {"status_quo", "bundler"};
  spec.axes = {{"competing_flows", {10, 30, 50}}};
  spec.default_trials = 3;
  registry->Register(
      std::move(spec), RunTrial,
      DumbbellTopology(PaperExperimentDefaults(true, 1).net,
                       "fig12_elastic_cross_sweep"));
}

}  // namespace runner
}  // namespace bundler
