// Figures 5 and 6 as one registered scenario: accuracy of Bundler's
// receive-rate and RTT estimates. The paper's claims are that 80% of
// receive-rate estimates fall within 4 Mbit/s (Fig. 5), and 80% of RTT
// estimates within 1.2 ms (Fig. 6), of the values measured at the
// bottleneck router, across traces spanning link delays {20, 50, 100 ms} and
// rates {24, 48, 96 Mbit/s}. Each (delay_ms, rate_mbps) sweep cell runs the
// §7.1-style web workload at 87.5% of capacity and compares every in-order
// epoch sample against ground truth read one reverse propagation earlier
// (when the feedback that produced the sample actually left the bottleneck):
// the RTT against propagation plus the bottleneck's queue delay, the
// receive rate against the bottleneck rate meter.
#include <cmath>
#include <vector>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/topo/dumbbell.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

constexpr double kDurationSec = 30;
constexpr double kWarmupSec = 5;
constexpr double kLoadFraction = 0.875;  // 84/96 of capacity, as in §7.1

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  BUNDLER_CHECK_MSG(point.variant == "bundler", "unknown fig05 variant '%s'",
                    point.variant.c_str());
  double delay_ms = point.Param("delay_ms");
  TimeDelta delay = TimeDelta::MillisF(delay_ms);
  Rate rate = Rate::Mbps(point.Param("rate_mbps"));

  DumbbellConfig cfg;
  cfg.bottleneck_rate = rate;
  cfg.rtt = delay;
  cfg.rate_meter_window = TimeDelta::Millis(50);
  Dumbbell net(sim, cfg);

  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = rate * kLoadFraction;
  PoissonWebWorkload workload(sim, net.flows(), net.server(), net.client(), &cdf, wl,
                              point.seed, &fct);

  // Collect every in-order epoch sample after warmup; ground truth is read
  // from the bottleneck monitors after the run.
  struct RawSample {
    TimePoint t;
    double rtt_ms;
    double rate_mbps;
    bool has_rates;
  };
  std::vector<RawSample> raw;
  const TimePoint warmup = TimePoint::Zero() + TimeDelta::SecondsF(kWarmupSec);
  net.controller()->measurement().SetSampleCallback([&](const EpochSample& s) {
    if (!s.in_order || s.now < warmup) {
      return;
    }
    raw.push_back({s.now, s.rtt.ToMillis(), s.recv_rate.Mbps(), s.has_rates});
  });

  sim->RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(kDurationSec));

  // Within-bound counts are reported next to the sample counts so that the
  // fractions pool exactly across seeds and cells.
  QuantileEstimator rtt_diff;
  QuantileEstimator rate_diff;
  int rtt_within = 0;
  int rate_within = 0;
  for (const RawSample& s : raw) {
    TimePoint transit = s.t - delay / 2;
    double rtt_err = s.rtt_ms - (delay_ms + net.bottleneck_delay()->DelayMsAt(transit));
    rtt_diff.Add(rtt_err);
    rtt_within += std::abs(rtt_err) <= 1.2 ? 1 : 0;
    if (!s.has_rates) {
      continue;
    }
    double actual_rate = net.bundle_rate_meter()->RateMbpsAt(transit);
    if (actual_rate > 0) {
      double rate_err = s.rate_mbps - actual_rate;
      rate_diff.Add(rate_err);
      rate_within += std::abs(rate_err) <= 4.0 ? 1 : 0;
    }
  }

  TrialResult r;
  r.samples["rate_diff_mbps"] = rate_diff.samples();
  r.scalars["rate_within_4_frac"] =
      rate_diff.empty() ? 0.0 : rate_diff.FractionWithinAbs(4.0);
  r.scalars["rate_within_4"] = rate_within;
  r.scalars["rate_diff_p50_mbps"] = rate_diff.empty() ? 0.0 : rate_diff.Median();
  r.scalars["rate_samples"] = static_cast<double>(rate_diff.count());
  r.samples["rtt_diff_ms"] = rtt_diff.samples();
  r.scalars["rtt_within_1p2"] = rtt_within;
  r.scalars["rtt_samples"] = static_cast<double>(rtt_diff.count());
  return r;
}

}  // namespace

void RegisterFig05RateEstimate(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig05_rate_estimate";
  spec.summary =
      "Fig 5/6: receive-rate and RTT estimate accuracy vs. bottleneck ground "
      "truth across a delay x rate grid (paper: 80% within 4 Mbit/s / 1.2 ms)";
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
