// Control-loop fault injection on the paper's dumbbell (feedback_blackout):
// the out-of-band feedback channel (§4.5) fails while the data path stays
// healthy. Every Bundler control message crossing the reverse link is
// dropped for a 5-second window (a ctl-targeted blackout from
// NetBuilder::AddFaultProfile). Without a watchdog the sendbox keeps shaping
// on whatever rate the controller last computed; the watchdog arm must
// instead degrade to pass-through within its staleness timeout, ride out the
// outage at status-quo behavior, and re-sync within one epoch of feedback
// returning (measured from the sendbox's watchdog log).
//
// Every return to delay control, the watchdog's re-sync included, reseeds
// the rate controller from the measured egress rate, so graceful degradation
// does not re-collapse the bundle at every re-sync.
#include <string>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr auto kBottleneck = Rate::Mbps(96);
constexpr auto kWebLoad = Rate::Mbps(84);
constexpr auto kDuration = TimeDelta::Seconds(30);
constexpr auto kWarmup = TimeDelta::Seconds(3);
constexpr auto kBlackoutStart = TimeDelta::Seconds(10);
constexpr auto kBlackoutEnd = TimeDelta::Seconds(15);  // 5 s total outage
constexpr auto kRecoverySlack = TimeDelta::Seconds(2);

TimePoint At(TimeDelta d) { return TimePoint::Zero() + d; }

struct Variant {
  bool bundler_on = false;
  bool watchdog = false;
};

Variant ParseVariant(const std::string& name) {
  Variant v;
  if (name == "status_quo") {
    return v;
  }
  v.bundler_on = true;
  if (name == "bundler_watchdog") {
    v.watchdog = true;
  } else {
    BUNDLER_CHECK_MSG(name == "bundler", "unknown feedback_blackout variant '%s'",
                      name.c_str());
  }
  return v;
}

DumbbellConfig FaultConfig(const Variant& v) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = kBottleneck;
  cfg.rtt = TimeDelta::Millis(50);
  cfg.bundler_enabled = v.bundler_on;
  cfg.rate_meter_window = TimeDelta::Millis(100);
  cfg.sendbox.watchdog = v.watchdog;
  return cfg;
}

NetBuilder FaultedDumbbell(const Variant& v, DumbbellGraph* graph,
                           NetBuilder::FaultId* fault_id) {
  DumbbellGraph g;
  NetBuilder b = DumbbellBuilder(FaultConfig(v), &g);
  // The profile targets only Bundler control messages, so the status-quo arm
  // carries it too (uniform topology) and its data passes untouched.
  NetBuilder::FaultId id = b.AddFaultProfile(
      g.reverse_link, {FaultTarget::kCtl, {{kBlackoutStart, kBlackoutEnd}}});
  if (graph != nullptr) {
    *graph = g;
  }
  if (fault_id != nullptr) {
    *fault_id = id;
  }
  return b;
}

// Builds the faulted dumbbell, runs the §7.1 web workload through it, and
// reports FCT windows plus watchdog/fault forensics.
TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  Variant v = ParseVariant(point.variant);
  DumbbellGraph g;
  NetBuilder::FaultId fault_id = -1;
  std::unique_ptr<Net> net = FaultedDumbbell(v, &g, &fault_id).Build(sim);

  static const SizeCdf kCdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = kWebLoad;
  PoissonWebWorkload web(sim, net->flows(), net->host(g.servers[0]),
                         net->host(g.clients[0]), &kCdf, wl, point.seed, &fct);

  sim->RunUntil(At(kDuration));

  TrialResult r;
  auto fct_window = [&](TimeDelta from, TimeDelta to, const std::string& key) {
    RequestFilter f = RequestFilter::SmallFlows();
    f.min_start = At(from);
    f.max_start = At(to);
    AddFctMillis(&r, fct.Fcts(f), key);
  };
  fct_window(kWarmup, kBlackoutStart, "short_fct_pre_ms");
  fct_window(kBlackoutStart, kBlackoutEnd + kRecoverySlack, "short_fct_fault_ms");
  fct_window(kBlackoutEnd + kRecoverySlack, kDuration - TimeDelta::Seconds(2),
             "short_fct_post_ms");
  r.scalars["bundle_tput_fault_mbps"] =
      net->rate_meter(g.bundle_meters[0])
          ->AverageRate(At(kBlackoutStart), At(kBlackoutEnd))
          .Mbps();
  r.scalars["requests_completed"] = static_cast<double>(fct.completed());

  const FaultInjector::Stats& fs = net->fault_injector(fault_id)->stats();
  r.scalars["ctl_drops"] = static_cast<double>(fs.drops_blackout);
  r.scalars["ctl_passed"] = static_cast<double>(fs.passed);

  if (v.bundler_on) {
    BundleController* sb = net->bundle_controller(0);
    r.scalars["feedback_matched_per_sec"] =
        static_cast<double>(sb->measurement().feedback_matched()) /
        kDuration.ToSeconds();
  }
  if (v.watchdog) {
    BundleController* sb = net->bundle_controller(0);
    // Watchdog forensics, straight from the state-machine log: how long after
    // the fault began did the sendbox degrade, how many probes it issued, and
    // how long after feedback could flow again did it re-sync. -1 = never.
    double degrade_ms = -1;
    double resync_ms = -1;
    double probes = 0;
    for (const auto& [t, ev] : sb->watchdog_log()) {
      switch (ev) {
        case BundleController::WatchdogEvent::kDegrade:
          if (degrade_ms < 0 && t >= At(kBlackoutStart)) {
            degrade_ms = (t - At(kBlackoutStart)).ToMillis();
          }
          break;
        case BundleController::WatchdogEvent::kProbe:
          ++probes;
          break;
        case BundleController::WatchdogEvent::kResync:
          if (resync_ms < 0 && t >= At(kBlackoutEnd)) {
            resync_ms = (t - At(kBlackoutEnd)).ToMillis();
          }
          break;
      }
    }
    r.scalars["wd_degrade_latency_ms"] = degrade_ms;
    r.scalars["wd_resync_latency_ms"] = resync_ms;
    r.scalars["wd_probes"] = probes;
    r.scalars["wd_degraded_at_end"] = sb->watchdog_degraded() ? 1.0 : 0.0;
  }
  return r;
}

}  // namespace

void RegisterFeedbackBlackout(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "feedback_blackout";
  spec.summary =
      "Fault injection: 5 s total blackout of Bundler control messages on the "
      "reverse link; the watchdog arm must degrade gracefully and re-sync";
  spec.variants = {"status_quo", "bundler", "bundler_watchdog"};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial, []() {
    Variant v;
    v.bundler_on = true;
    v.watchdog = true;
    return BuildAndRenderDot(FaultedDumbbell(v, nullptr, nullptr),
                             "feedback_blackout");
  });
}

}  // namespace runner
}  // namespace bundler
