// Capacity step on the paper's dumbbell (the fig10-shaped instrument for the
// phase-3 reproduction gap): three phases on one bottleneck, but driven by
// declarative link events instead of cross traffic — (1) full capacity,
// (2) capacity stepped down to `step_mbps`, (3) capacity restored. Because no
// competing flows are involved, the bundle's re-ramp after the restore
// isolates the *controller's* transient behavior: a slow phase 3 here is the
// sendbox (cc re-ramp, EWMA staleness), not elasticity detection. Reported
// per phase: short-flow FCT and bundle throughput; plus the post-restore
// recovery time and the sendbox's mean shaped rate over the second after
// restore.
#include <string>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr double kPhaseSeconds = 40;
constexpr auto kBottleneck = Rate::Mbps(96);
constexpr auto kWebLoad = Rate::Mbps(84);

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

NetBuilder StepBuilder(bool bundler_on, Rate step_rate, DumbbellGraph* graph) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = kBottleneck;
  cfg.rtt = TimeDelta::Millis(50);
  cfg.bundler_enabled = bundler_on;
  cfg.rate_meter_window = TimeDelta::Millis(500);
  DumbbellGraph g;
  NetBuilder b = DumbbellBuilder(cfg, &g);
  b.AddLinkEvent(g.bottleneck, Sec(kPhaseSeconds), step_rate);
  b.AddLinkEvent(g.bottleneck, Sec(2 * kPhaseSeconds), kBottleneck);
  if (graph != nullptr) {
    *graph = g;
  }
  return b;
}

TrialResult RunTrial(const TrialPoint& point) {
  bool bundler_on = point.variant == "bundler";
  BUNDLER_CHECK_MSG(bundler_on || point.variant == "status_quo",
                    "unknown rate_step variant '%s'", point.variant.c_str());
  Rate step_rate = Rate::Mbps(point.Param("step_mbps"));

  Simulator sim;
  BeginTrialObs(&sim);
  DumbbellGraph g;
  std::unique_ptr<Net> net = StepBuilder(bundler_on, step_rate, &g).Build(&sim);

  static const SizeCdf kCdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = kWebLoad;
  PoissonWebWorkload web(&sim, net->flows(), net->host(g.servers[0]),
                         net->host(g.clients[0]), &kCdf, wl, point.seed, &fct);

  // Shaped-rate transient around the restore: the bundle's enforced rate in
  // the middle of each 10 ms control tick over the second after capacity
  // returns. A controller that re-ramps promptly shows a mean near capacity.
  const TimePoint restore = Sec(2 * kPhaseSeconds);
  constexpr int kRateSamples = 100;
  double rate_sum_mbps = 0;
  if (bundler_on) {
    SendboxManager* sb = net->sendbox(0);
    for (int k = 0; k < kRateSamples; ++k) {
      sim.ScheduleAt(restore + TimeDelta::Millis(5 + 10 * k),
                     [sb, &rate_sum_mbps]() { rate_sum_mbps += sb->bundle_rate(0).Mbps(); });
    }
  }

  sim.RunUntil(Sec(3 * kPhaseSeconds));

  RateMeter* meter = net->rate_meter(g.bundle_meters[0]);
  TrialResult r;
  for (int phase = 0; phase < 3; ++phase) {
    double from_s = phase * kPhaseSeconds;
    double to_s = from_s + kPhaseSeconds;
    RequestFilter f = RequestFilter::SmallFlows();
    f.min_start = Sec(from_s + 5);  // let each phase settle
    f.max_start = Sec(to_s);
    AddFctMillis(&r, fct.Fcts(f), "short_fct_phase" + std::to_string(phase + 1) + "_ms");
    r.scalars["bundle_tput_phase" + std::to_string(phase + 1) + "_mbps"] =
        meter->AverageRate(Sec(from_s), Sec(to_s)).Mbps();
  }
  double phase1_mbps = meter->AverageRate(Sec(5), Sec(kPhaseSeconds)).Mbps();
  r.scalars["recovery_ms"] =
      RecoveryMillis(meter->rate_mbps(), restore, 0.9 * phase1_mbps);
  r.scalars["requests_completed"] = static_cast<double>(fct.completed());
  if (bundler_on) {
    r.scalars["sendbox_rate_mbps_1s_post_restore"] = rate_sum_mbps / kRateSamples;
  }
  EndTrialObs(&sim, point, &r);
  return r;
}

}  // namespace

void RegisterRateStep(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "rate_step";
  spec.summary =
      "Fig10-style capacity step via link events (96 -> step_mbps -> 96); "
      "isolates the controller's re-ramp transient after capacity returns";
  spec.variants = {"status_quo", "bundler"};
  spec.axes = {{"step_mbps", {32, 64}}};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(StepBuilder(/*bundler_on=*/true, Rate::Mbps(32), nullptr),
                             "rate_step");
  });
}

}  // namespace runner
}  // namespace bundler
