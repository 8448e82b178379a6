// Failure injection on the paper's dumbbell: the bottleneck link drops to
// rate zero mid-run (parked — nothing serializes, arrivals queue and drop)
// and recovers `down_ms` later. The paper's resilience story (§4.5, §6) is
// that a Bundler is never required for connectivity and adapts its shaped
// rate to whatever the path currently offers; this scenario measures how the
// bundle behaves through an outage the static scenarios cannot express:
// time to re-attain pre-outage throughput after recovery, and short-flow FCT
// for requests issued before, during, and after the flap.
//
// The flap itself is two declarative NetBuilder events on the preset
// dumbbell's bottleneck edge — no bespoke topology code.
#include <string>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr auto kBottleneck = Rate::Mbps(96);
constexpr auto kWebLoad = Rate::Mbps(84);
constexpr auto kFlapStart = TimeDelta::Seconds(12);
constexpr auto kDuration = TimeDelta::Seconds(30);
constexpr auto kWarmup = TimeDelta::Seconds(5);

TimePoint At(TimeDelta d) { return TimePoint::Zero() + d; }

DumbbellConfig FlapConfig(bool bundler_on) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = kBottleneck;
  cfg.rtt = TimeDelta::Millis(50);
  cfg.bundler_enabled = bundler_on;
  // 100 ms meter windows: fine enough to resolve recovery after sub-second
  // outages (the smallest swept `down_ms` is 250 ms).
  cfg.rate_meter_window = TimeDelta::Millis(100);
  return cfg;
}

NetBuilder FlapBuilder(bool bundler_on, TimeDelta down, DumbbellGraph* graph) {
  DumbbellGraph g;
  NetBuilder b = DumbbellBuilder(FlapConfig(bundler_on), &g);
  b.AddLinkEvent(g.bottleneck, At(kFlapStart), Rate::Zero());
  b.AddLinkEvent(g.bottleneck, At(kFlapStart + down), kBottleneck);
  if (graph != nullptr) {
    *graph = g;
  }
  return b;
}

TrialResult RunTrial(const TrialPoint& point) {
  bool bundler_on = point.variant == "bundler";
  BUNDLER_CHECK_MSG(bundler_on || point.variant == "status_quo",
                    "unknown link_flap variant '%s'", point.variant.c_str());
  TimeDelta down = TimeDelta::MillisF(point.Param("down_ms"));

  Simulator sim;
  BeginTrialObs(&sim);
  DumbbellGraph g;
  std::unique_ptr<Net> net = FlapBuilder(bundler_on, down, &g).Build(&sim);

  static const SizeCdf kCdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = kWebLoad;
  PoissonWebWorkload web(&sim, net->flows(), net->host(g.servers[0]),
                         net->host(g.clients[0]), &kCdf, wl, point.seed, &fct);

  sim.RunUntil(At(kDuration));

  TimePoint flap_start = At(kFlapStart);
  TimePoint flap_end = At(kFlapStart + down);
  RateMeter* meter = net->rate_meter(g.bundle_meters[0]);
  double pre_mbps = meter->AverageRate(At(kWarmup), flap_start).Mbps();

  TrialResult r;
  auto fct_window = [&](TimePoint from, TimePoint to, const std::string& key) {
    RequestFilter f = RequestFilter::SmallFlows();
    f.min_start = from;
    f.max_start = to;
    AddFctMillis(&r, fct.Fcts(f), key);
  };
  fct_window(At(kWarmup), flap_start, "short_fct_pre_ms");
  fct_window(flap_start, flap_end + TimeDelta::Seconds(2), "short_fct_flap_ms");
  fct_window(flap_end + TimeDelta::Seconds(2), At(kDuration - TimeDelta::Seconds(2)),
             "short_fct_post_ms");
  r.scalars["pre_flap_tput_mbps"] = pre_mbps;
  // Time after the link comes back until the bundle's delivered rate holds
  // 80% of its pre-outage throughput for two meter windows.
  r.scalars["recovery_ms"] = RecoveryMillis(meter->rate_mbps(), flap_end, 0.8 * pre_mbps);
  r.scalars["bottleneck_qdrops"] =
      static_cast<double>(net->link(g.bottleneck)->queue()->drops());
  r.scalars["requests_completed"] = static_cast<double>(fct.completed());
  EndTrialObs(&sim, point, &r);
  return r;
}

}  // namespace

void RegisterLinkFlap(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "link_flap";
  spec.summary =
      "Failure injection: bottleneck parks at rate zero for down_ms and "
      "recovers; measures re-ramp time and FCT through the outage";
  spec.variants = {"status_quo", "bundler"};
  spec.axes = {{"down_ms", {250, 1000, 4000}}};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(
        FlapBuilder(/*bundler_on=*/true, TimeDelta::Seconds(1), nullptr), "link_flap");
  });
}

}  // namespace runner
}  // namespace bundler
