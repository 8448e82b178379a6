// §7.2 "Using Bundler for other policies" as one registered scenario holding
// the paper's two one-line studies, each a status-quo / Bundler variant pair
// on the §7.1 dumbbell (96 Mbit/s, 50 ms RTT):
//
//   fq_codel_* — a closed-loop UDP ping-pong rides inside the bundle next to
//       84 Mbit/s of web load; its request-response RTT is the end-to-end
//       latency. The paper reports FQ-CoDel at the sendbox cutting the
//       median RTT by 97% and the p99 by 89% versus the status quo.
//   prio_*     — two 30 Mbit/s web classes plus two low-priority backlogged
//       bulk flows (the §1 motif: deprioritize backup traffic) share one
//       bundle scheduled by strict priority. The paper reports a 65% lower
//       median FCT for the high-priority class.
//
// Workload seeds are fixed offsets of the trial seed, one random stream per
// workload: trial 1 draws seed 3 for the ping-pong study's web load and
// seeds 11 and 13 for the two priority classes.
#include <string>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/ideal_fct.h"
#include "src/topo/dumbbell.h"
#include "src/transport/udp_pingpong.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr auto kRate = Rate::Mbps(96);
constexpr auto kRtt = TimeDelta::Millis(50);

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

DumbbellConfig StudyNet(bool bundler_on, SchedulerType sched) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = kRate;
  cfg.rtt = kRtt;
  cfg.bundler_enabled = bundler_on;
  cfg.sendbox.scheduler = sched;
  return cfg;
}

TrialResult RunPingPong(bool bundler_on, const TrialPoint& point, Simulator* sim) {
  Dumbbell net(sim, StudyNet(bundler_on, SchedulerType::kFqCodel));

  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = Rate::Mbps(84);
  PoissonWebWorkload web(sim, net.flows(), net.server(), net.client(), &cdf, wl,
                         point.seed + 2, &fct);
  UdpPingPongClient* ping = StartUdpPingPong(net.flows(), net.client(), net.server());
  ping->SetRecordingWindow(Sec(10), Sec(60));
  sim->RunUntil(Sec(60));

  TrialResult r;
  r.scalars["rtt_ms_p50"] = ping->rtt_ms().Median();
  r.scalars["rtt_ms_p99"] = ping->rtt_ms().Quantile(0.99);
  r.samples["rtt_ms"] = ping->rtt_ms().samples();
  return r;
}

TrialResult RunPriority(bool bundler_on, const TrialPoint& point, Simulator* sim) {
  Dumbbell net(sim, StudyNet(bundler_on, SchedulerType::kPrio));

  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder high_fct;
  FctRecorder low_fct;
  WebWorkloadConfig high_wl;
  high_wl.offered_load = Rate::Mbps(30);
  high_wl.priority = 0;
  WebWorkloadConfig low_wl = high_wl;
  low_wl.priority = 1;
  PoissonWebWorkload high(sim, net.flows(), net.server(), net.client(), &cdf, high_wl,
                          point.seed + 10, &high_fct);
  PoissonWebWorkload low(sim, net.flows(), net.server(), net.client(), &cdf, low_wl,
                         point.seed + 12, &low_fct);
  // Backlogged bulk flows keep the bundle saturated, which is exactly when
  // strict priority matters.
  TcpFlowParams bulk;
  bulk.size_bytes = -1;
  bulk.cc = HostCcType::kCubic;
  bulk.priority = 2;
  StartTcpFlow(net.flows(), net.server(), net.client(), bulk, nullptr);
  StartTcpFlow(net.flows(), net.server(), net.client(), bulk, nullptr);
  sim->RunUntil(Sec(60));

  IdealFctFn ideal = SharedIdealFctFn(kRate, kRtt, HostCcType::kCubic);
  RequestFilter measured;
  measured.min_start = Sec(10);
  QuantileEstimator high_q = high_fct.Slowdowns(ideal, measured);
  QuantileEstimator low_q = low_fct.Slowdowns(ideal, measured);
  TrialResult r;
  r.scalars["median_slowdown_high"] = high_q.empty() ? 0.0 : high_q.Median();
  r.scalars["median_slowdown_low"] = low_q.empty() ? 0.0 : low_q.Median();
  r.samples["slowdown_high"] = high_q.samples();
  r.samples["slowdown_low"] = low_q.samples();
  return r;
}

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  const std::string& v = point.variant;
  if (v == "fq_codel_status_quo" || v == "fq_codel_bundler") {
    return RunPingPong(v == "fq_codel_bundler", point, sim);
  }
  BUNDLER_CHECK_MSG(v == "prio_status_quo" || v == "prio_bundler",
                    "unknown sec72 variant '%s'", v.c_str());
  return RunPriority(v == "prio_bundler", point, sim);
}

}  // namespace

void RegisterSec72OtherPolicies(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "sec72_other_policies";
  spec.summary =
      "§7.2: FQ-CoDel at the sendbox for a ping-pong's RTT, and strict "
      "priority between two web classes (paper: 97% / 89% lower RTT p50 / "
      "p99; 65% lower high-class median FCT)";
  spec.variants = {"fq_codel_status_quo", "fq_codel_bundler", "prio_status_quo",
                   "prio_bundler"};
  spec.default_trials = 1;
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(StudyNet(true, SchedulerType::kPrio),
                                      "sec72_other_policies"));
}

}  // namespace runner
}  // namespace bundler
