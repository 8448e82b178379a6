// Figure 5 as a registered scenario: accuracy of Bundler's receive-rate
// estimate. The paper's claim is that 80% of receive-rate estimates fall
// within 4 Mbit/s of the value measured at the bottleneck router, across
// traces spanning link delays {20, 50, 100 ms} and rates {24, 48, 96 Mbit/s}.
// Each (delay_ms, rate_mbps) sweep cell runs the §7.1-style web workload at
// 87.5% of capacity and compares every in-order epoch sample's receive-rate
// estimate against the bottleneck rate meter read one reverse propagation
// earlier (when the feedback that produced the sample actually left the
// bottleneck). Registered so bench/fig05_rate_estimate.cc is a thin wrapper
// (continuing the PR 6 fig02 pattern); fig06 keeps the standalone
// bench/estimate_sweep.h driver because it also reports RTT accuracy and the
// example trace segment.
#include <vector>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/topo/dumbbell.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

constexpr double kDurationSec = 30;
constexpr double kWarmupSec = 5;
constexpr double kLoadFraction = 0.875;  // 84/96 of capacity, as in §7.1

TrialResult RunTrial(const TrialPoint& point) {
  BUNDLER_CHECK_MSG(point.variant == "bundler", "unknown fig05 variant '%s'",
                    point.variant.c_str());
  TimeDelta delay = TimeDelta::MillisF(point.Param("delay_ms"));
  Rate rate = Rate::Mbps(point.Param("rate_mbps"));

  Simulator sim;
  BeginTrialObs(&sim);
  DumbbellConfig cfg;
  cfg.bottleneck_rate = rate;
  cfg.rtt = delay;
  cfg.rate_meter_window = TimeDelta::Millis(50);
  Dumbbell net(&sim, cfg);

  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = rate * kLoadFraction;
  PoissonWebWorkload workload(&sim, net.flows(), net.server(), net.client(), &cdf, wl,
                              point.seed, &fct);

  // Collect every in-order epoch sample after warmup; ground truth is read
  // from the bottleneck rate meter after the run, at the instant the sample's
  // feedback left the bottleneck (one reverse propagation before arrival).
  struct RawSample {
    TimePoint t;
    double rate_mbps;
  };
  std::vector<RawSample> raw;
  const TimePoint warmup = TimePoint::Zero() + TimeDelta::SecondsF(kWarmupSec);
  net.controller()->measurement().SetSampleCallback([&](const EpochSample& s) {
    if (!s.in_order || !s.has_rates || s.now < warmup) {
      return;
    }
    raw.push_back({s.now, s.recv_rate.Mbps()});
  });

  sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(kDurationSec));

  QuantileEstimator diff;
  for (const RawSample& s : raw) {
    TimePoint transit = s.t - delay / 2;
    double actual = net.bundle_rate_meter()->RateMbpsAt(transit);
    if (actual > 0) {
      diff.Add(s.rate_mbps - actual);
    }
  }

  TrialResult r;
  r.samples["rate_diff_mbps"] = diff.samples();
  r.scalars["rate_within_4_frac"] = diff.empty() ? 0.0 : diff.FractionWithinAbs(4.0);
  r.scalars["rate_diff_p50_mbps"] = diff.empty() ? 0.0 : diff.Median();
  r.scalars["rate_samples"] = static_cast<double>(diff.count());
  EndTrialObs(&sim, point, &r);
  return r;
}

}  // namespace

void RegisterFig05RateEstimate(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig05_rate_estimate";
  spec.summary =
      "Fig 5: receive-rate estimate accuracy vs. bottleneck ground truth "
      "across a delay x rate grid (paper: 80% within 4 Mbit/s)";
  spec.variants = {"bundler"};
  spec.axes = {{"delay_ms", {20, 50, 100}}, {"rate_mbps", {24, 48, 96}}};
  spec.default_trials = 2;
  DumbbellConfig topo;
  topo.bottleneck_rate = Rate::Mbps(48);
  topo.rtt = TimeDelta::Millis(50);
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(topo, "fig05_rate_estimate"));
}

}  // namespace runner
}  // namespace bundler
