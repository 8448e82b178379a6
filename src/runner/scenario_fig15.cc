// Figure 15 as a registered scenario: what would a TCP-terminating (proxy)
// Bundler add? The paper emulates an idealized proxy by pinning the endhost
// congestion window at 450 packets (slightly above the BDP) and enlarging
// the sendbox buffer to absorb the pinned windows (§7.5), leaving the rest
// of Bundler unchanged. Short requests see no benefit (they finish inside
// slow start either way); medium-to-long requests gain because they skip
// window growth.
//
// The proxy's enlarged sendbox buffer is the bundle's `queue_limit_pkts`:
// the packet limit of the SFQ that queues the bundle inside its site's
// SendboxManager.
#include <string>

#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/ideal_fct.h"
#include "src/topo/scenario.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr int64_t kProxyQueuePkts = 40000;

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  const bool bundler_on = point.variant != "status_quo";
  const bool proxy = point.variant == "bundler_proxy";
  BUNDLER_CHECK_MSG(proxy || point.variant == "bundler" || !bundler_on,
                    "unknown fig15 variant '%s'", point.variant.c_str());

  ExperimentConfig cfg = PaperExperimentDefaults(bundler_on, point.seed);
  if (proxy) {
    cfg.host_cc = HostCcType::kConstCwnd;  // ConstCwnd::kCwndPkts = 450 packets
    // The proxy must absorb every pinned window at the sendbox (§7.5:
    // "increasing the buffering at the sendbox to hold these packets").
    cfg.net.sendbox.queue_limit_pkts = kProxyQueuePkts;
  }
  Experiment e(sim, cfg);
  e.Run();

  // Slowdowns are always relative to the unloaded-Cubic ideal, as in the
  // paper: the proxy's pinned window changes the loaded run, not the
  // reference.
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
    r.scalars[std::string("median_slowdown_") + name] =
        q.empty() ? 0.0 : q.Median();
  }
  r.scalars["requests_completed"] = static_cast<double>(e.fct()->completed());
  return r;
}

}  // namespace

void RegisterFig15Proxy(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig15_proxy";
  spec.summary =
      "Fig 15: idealized TCP proxy (constant 450-packet endhost window, "
      "enlarged sendbox buffer) vs Bundler vs StatusQuo";
  spec.variants = {"status_quo", "bundler", "bundler_proxy"};
  spec.default_trials = 3;
  registry->Register(
      std::move(spec), RunTrial,
      DumbbellTopology(PaperExperimentDefaults(true, 1).net, "fig15_proxy"));
}

}  // namespace runner
}  // namespace bundler
