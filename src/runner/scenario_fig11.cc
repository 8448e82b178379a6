// Figure 11 as a registered scenario: bundled traffic against short-lived
// (web mix) cross traffic. The bundle offers a fixed 48 Mbit/s of the §7.1
// web workload at a 96 Mbit/s bottleneck while unbundled web-mix cross
// traffic sweeps from 6 to 42 Mbit/s (the `cross_mbps` axis). The paper
// reports Status Quo FCTs rising steadily with cross load (aggregate
// queueing) while Bundler keeps slowdowns low with both Copa and Nimbus
// (BasicDelay) rate control, at no long-term throughput cost.
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/ideal_fct.h"
#include "src/topo/scenario.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

struct Fig11Variant {
  bool bundler;
  BundleCcType cc;
};

Fig11Variant VariantConfig(const std::string& name) {
  if (name == "status_quo") {
    return {false, BundleCcType::kCopa};
  }
  if (name == "bundler_copa") {
    return {true, BundleCcType::kCopa};
  }
  if (name == "bundler_nimbus") {
    return {true, BundleCcType::kBasicDelay};
  }
  BUNDLER_CHECK_MSG(false, "unknown fig11 variant '%s'", name.c_str());
  return {};
}

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  Fig11Variant var = VariantConfig(point.variant);
  ExperimentConfig cfg = PaperExperimentDefaults(var.bundler, point.seed);
  cfg.bundle_web_load = {Rate::Mbps(48)};
  cfg.cross_web_load = Rate::Mbps(point.Param("cross_mbps"));
  cfg.net.sendbox.cc = var.cc;
  Experiment e(sim, cfg);
  e.Run();

  IdealFctFn ideal_fn = SharedIdealFctFn(cfg.net.bottleneck_rate, cfg.net.rtt, cfg.host_cc);
  QuantileEstimator q = e.fct()->Slowdowns(ideal_fn, e.MeasuredRequests());

  TrialResult r;
  r.samples["slowdown_all"] = q.samples();
  r.scalars["median_slowdown_all"] = q.empty() ? 0.0 : q.Median();
  r.scalars["bundle_tput_mbps"] =
      e.net()
          ->bundle_rate_meter()
          ->AverageRate(TimePoint::Zero() + cfg.warmup, TimePoint::Zero() + cfg.duration)
          .Mbps();
  r.scalars["requests_completed"] = static_cast<double>(e.fct()->completed());
  return r;
}

}  // namespace

void RegisterFig11WebCrossSweep(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig11_web_cross_sweep";
  spec.summary =
      "Fig 11: web-mix cross traffic sweep (bundle fixed at 48 Mbit/s); "
      "StatusQuo FCTs rise with cross load, Bundler (Copa/Nimbus) stays low";
  spec.variants = {"status_quo", "bundler_copa", "bundler_nimbus"};
  spec.axes = {{"cross_mbps", {6, 12, 18, 24, 30, 36, 42}}};
  spec.default_trials = 3;
  registry->Register(
      std::move(spec), RunTrial,
      DumbbellTopology(PaperExperimentDefaults(true, 1).net, "fig11_web_cross_sweep"));
}

}  // namespace runner
}  // namespace bundler
