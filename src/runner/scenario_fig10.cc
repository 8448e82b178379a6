// Figure 10 as a registered scenario: behavior over time as cross traffic
// comes and goes. Three 60-second phases share a 96 Mbit/s bottleneck with
// the bundle's §7.1-style web workload: (1) no competing traffic, (2) a
// backlogged buffer-filling Cubic cross flow, (3) non-buffer-filling web
// cross traffic. The paper's claim: Bundler detects the elastic competitor,
// reverts to ~status-quo behavior during phase 2, and resumes scheduling in
// phase 3. Variants: status_quo, bundler (the default control loop) and
// bundler_robust (robust elasticity exits on, the fix for phase 2 flapping
// out of pass-through). Reported per phase: short-flow FCT quartiles
// (samples + scalars) and average bundle throughput; for the bundler
// variants, the fraction of phase 2 spent in pass-through mode.
#include <algorithm>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/topo/dumbbell.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr double kPhaseSeconds = 60;

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

// Fraction of [from, to) spent in pass-through mode, given the sendbox's
// (time, mode) transition log (mode before the first transition is
// kDelayControl).
double PassthroughFraction(const std::vector<std::pair<TimePoint, BundlerMode>>& log,
                           TimePoint from, TimePoint to) {
  BundlerMode mode = BundlerMode::kDelayControl;
  TimePoint prev = from;
  TimeDelta in_passthrough = TimeDelta::Zero();
  for (const auto& [t, m] : log) {
    if (t <= from) {
      mode = m;
      continue;
    }
    TimePoint seg_end = std::min(t, to);
    if (mode == BundlerMode::kPassThrough) {
      in_passthrough += seg_end - prev;
    }
    if (t >= to) {
      prev = to;
      break;
    }
    prev = t;
    mode = m;
  }
  if (prev < to && mode == BundlerMode::kPassThrough) {
    in_passthrough += to - prev;
  }
  return in_passthrough / (to - from);
}

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  bool robust = point.variant == "bundler_robust";
  bool bundler_on = robust || point.variant == "bundler";
  BUNDLER_CHECK_MSG(bundler_on || point.variant == "status_quo",
                    "unknown fig10 variant '%s'", point.variant.c_str());

  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(96);
  cfg.rtt = TimeDelta::Millis(50);
  cfg.bundler_enabled = bundler_on;
  cfg.rate_meter_window = TimeDelta::Millis(500);
  // The robust variant gates pass-through exits on bottleneck busyness and
  // scales the quiet-tick requirement on quick re-entry
  // (BundleControlConfig::robust_elastic_exit) — the ROADMAP fix for phase 2
  // flapping out of pass-through during the cross flow's quiet spells.
  cfg.sendbox.robust_elastic_exit = robust;
  Dumbbell net(sim, cfg);

  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = Rate::Mbps(84);
  PoissonWebWorkload bundle_wl(sim, net.flows(), net.server(), net.client(), &cdf, wl,
                               point.seed, &fct);

  // Phase 2 (60..120 s): one backlogged Cubic flow, sized to drain shortly
  // before t=120 (~a third of the link for the phase).
  TcpFlowParams cross;
  cross.cc = HostCcType::kCubic;
  cross.size_bytes = static_cast<int64_t>(kPhaseSeconds * 96e6 / 8 * 0.30);
  sim->Schedule(TimeDelta::Seconds(60), [&]() {
    StartTcpFlow(net.flows(), net.cross_server(), net.cross_client(), cross, nullptr);
  });

  // Phase 3 (120..180 s): non-buffer-filling web cross traffic, offered so
  // bundle + cross stays under capacity (84 + 10 < 96).
  FctRecorder cross_fct;
  WebWorkloadConfig cross_wl;
  cross_wl.offered_load = Rate::Mbps(10);
  cross_wl.start = Sec(120);
  cross_wl.stop = Sec(180);
  PoissonWebWorkload cross_web(sim, net.flows(), net.cross_server(),
                               net.cross_client(), &cdf, cross_wl, point.seed + 77,
                               &cross_fct);

  sim->RunUntil(Sec(3 * kPhaseSeconds));

  TrialResult r;
  for (int phase = 0; phase < 3; ++phase) {
    double from_s = phase * kPhaseSeconds;
    double to_s = from_s + kPhaseSeconds;
    RequestFilter f = RequestFilter::SmallFlows();
    f.min_start = Sec(from_s + 5);  // let each phase settle
    f.max_start = Sec(to_s);
    QuantileEstimator q = fct.Fcts(f);
    std::string key = "short_fct_phase" + std::to_string(phase + 1) + "_ms";
    std::vector<double> ms = q.samples();
    for (double& v : ms) {
      v *= 1000;
    }
    r.samples[key] = std::move(ms);
    r.scalars[key + "_p50"] = q.empty() ? 0.0 : q.Median() * 1000;
    r.scalars["bundle_tput_phase" + std::to_string(phase + 1) + "_mbps"] =
        net.bundle_rate_meter()->AverageRate(Sec(from_s), Sec(to_s)).Mbps();
  }
  r.scalars["cross_requests_completed"] = static_cast<double>(cross_fct.completed());
  if (bundler_on) {
    r.scalars["phase2_passthrough_frac"] = PassthroughFraction(
        net.controller()->mode_log(), Sec(kPhaseSeconds), Sec(2 * kPhaseSeconds));
  }
  return r;
}

}  // namespace

void RegisterFig10CrossTraffic(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig10_cross_traffic";
  spec.summary =
      "Fig 10: three-phase cross-traffic timeline (none / buffer-filling / "
      "non-buffer-filling); Bundler must detect and yield, then resume";
  spec.variants = {"status_quo", "bundler", "bundler_robust"};
  spec.default_trials = 3;
  DumbbellConfig topo;
  topo.bottleneck_rate = Rate::Mbps(96);
  topo.rtt = TimeDelta::Millis(50);
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(topo, "fig10_cross_traffic"));
}

}  // namespace runner
}  // namespace bundler
