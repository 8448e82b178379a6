// The §7.1 FCT experiment as three registered scenarios that share one trial
// body and differ only in their configuration variants:
//
//   fig09_fct         — where scheduling happens: Status Quo (no Bundler),
//                       Bundler+SFQ, Bundler+FIFO, and In-Network fair
//                       queueing (DRR at the bottleneck).
//   fig14_sendbox_cc  — the bundle's rate controller: Copa, Nimbus
//                       BasicDelay and BBR against Status Quo. The paper
//                       reports BasicDelay ≈ Copa and BBR slightly worse than
//                       Status Quo (it keeps a larger in-network queue).
//   sec74_endhost_cc  — the endhosts' congestion control: Cubic, Reno and
//                       BBR, each with and without Bundler. The paper reports
//                       a 58% lower median FCT with BBR endhosts.
//
// Slowdown samples are reported per request-size bucket and pooled across
// seeds by the aggregator, mirroring how the paper pools runs. Slowdowns
// always divide by the unloaded-Cubic ideal FCT, so endhost CCs compare on
// one scale.
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/ideal_fct.h"
#include "src/topo/scenario.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

struct FctVariant {
  std::string name;
  bool bundler = true;
  bool in_network_fq = false;
  SchedulerType sched = SchedulerType::kSfq;
  BundleCcType bundle_cc = BundleCcType::kCopa;
  HostCcType host_cc = HostCcType::kCubic;
};

TrialResult RunTrial(const FctVariant& var, const TrialPoint& point, Simulator* sim) {
  ExperimentConfig cfg = PaperExperimentDefaults(var.bundler, point.seed);
  cfg.net.in_network_fq = var.in_network_fq;
  cfg.net.sendbox.scheduler = var.sched;
  cfg.net.sendbox.cc = var.bundle_cc;
  cfg.host_cc = var.host_cc;
  Experiment e(sim, cfg);
  e.Run();

  IdealFctFn ideal_fn =
      SharedIdealFctFn(cfg.net.bottleneck_rate, cfg.net.rtt, HostCcType::kCubic);
  TimePoint warmup_end = TimePoint::Zero() + cfg.warmup;

  const std::pair<const char*, RequestFilter> buckets[] = {
      {"all", RequestFilter()},
      {"small", RequestFilter::SmallFlows()},
      {"medium", RequestFilter::MediumFlows()},
      {"large", RequestFilter::LargeFlows()},
  };

  TrialResult r;
  for (auto [name, filter] : buckets) {
    filter.min_start = warmup_end;
    QuantileEstimator q = e.fct()->Slowdowns(ideal_fn, filter);
    r.samples[std::string("slowdown_") + name] = q.samples();
  }
  QuantileEstimator all = e.fct()->Slowdowns(ideal_fn, e.MeasuredRequests());
  r.scalars["median_slowdown_all"] = all.empty() ? 0.0 : all.Median();
  r.scalars["p99_slowdown_all"] = all.empty() ? 0.0 : all.Quantile(0.99);
  r.scalars["requests_completed"] = static_cast<double>(e.fct()->completed());
  return r;
}

void RegisterFctScenario(ScenarioRegistry* registry, std::string name,
                         std::string summary, std::vector<FctVariant> variants,
                         int trials) {
  ScenarioSpec spec;
  spec.name = name;
  spec.summary = std::move(summary);
  spec.variants.clear();
  for (const FctVariant& v : variants) {
    spec.variants.push_back(v.name);
  }
  spec.default_trials = trials;
  registry->Register(
      std::move(spec),
      [name, variants = std::move(variants)](const TrialPoint& point, Simulator* sim) {
        for (const FctVariant& v : variants) {
          if (v.name == point.variant) {
            return RunTrial(v, point, sim);
          }
        }
        BUNDLER_CHECK_MSG(false, "unknown %s variant '%s'", name.c_str(),
                          point.variant.c_str());
        return TrialResult();
      },
      DumbbellTopology(PaperExperimentDefaults(true, 1).net, name));
}

}  // namespace

void RegisterFig09Fct(ScenarioRegistry* registry) {
  RegisterFctScenario(registry, "fig09_fct",
                      "Fig 9: FCT slowdown by size bucket for StatusQuo / Bundler+SFQ / "
                      "Bundler+FIFO / In-Network under the paper's 7.1 workload",
                      {{.name = "status_quo", .bundler = false},
                       {.name = "bundler_sfq"},
                       {.name = "bundler_fifo", .sched = SchedulerType::kFifo},
                       {.name = "in_network", .bundler = false, .in_network_fq = true}},
                      /*trials=*/3);
}

void RegisterFig14SendboxCc(ScenarioRegistry* registry) {
  RegisterFctScenario(registry, "fig14_sendbox_cc",
                      "Fig 14: bundle rate controller Copa / BasicDelay / BBR vs "
                      "StatusQuo under the 7.1 workload (paper: BasicDelay ~ Copa, "
                      "BBR slightly worse than StatusQuo)",
                      {{.name = "status_quo", .bundler = false},
                       {.name = "bundler_copa"},
                       {.name = "bundler_basic_delay",
                        .bundle_cc = BundleCcType::kBasicDelay},
                       {.name = "bundler_bbr", .bundle_cc = BundleCcType::kBbr}},
                      /*trials=*/2);
}

void RegisterSec74EndhostCc(ScenarioRegistry* registry) {
  std::vector<FctVariant> variants;
  for (auto [cc_name, cc] : {std::pair{"cubic", HostCcType::kCubic},
                             std::pair{"reno", HostCcType::kNewReno},
                             std::pair{"bbr", HostCcType::kBbr}}) {
    variants.push_back(
        {.name = std::string("status_quo_") + cc_name, .bundler = false, .host_cc = cc});
    variants.push_back({.name = std::string("bundler_") + cc_name, .host_cc = cc});
  }
  RegisterFctScenario(registry, "sec74_endhost_cc",
                      "§7.4: endhost Cubic / Reno / BBR with and without Bundler "
                      "(paper: 58% lower median FCT with BBR endhosts)",
                      std::move(variants), /*trials=*/1);
}

}  // namespace runner
}  // namespace bundler
