// Sendbox feedback watchdog (BundleControlConfig::watchdog in
// src/bundler/bundle_controller.h): the control-loop survival state machine.
// A feedback-only blackout profile sits on the dumbbell's reverse link
// (NetBuilder::AddFaultProfile), and the tests walk the documented lifecycle
// off the bundle controller's watchdog_log(): staleness past
// kWatchdogTimeout (500 ms, in bundle_controller.cc) degrades (shaper opened
// to max_rate, mode machinery frozen), re-probes back off exponentially from
// kWatchdogProbeInitial (250 ms), and the first fresh feedback after the
// outage re-syncs immediately and hands the rate back to the live
// controller. The last test runs the registered feedback_blackout scenario's
// watchdog trial through the TrialRunner and reads the same lifecycle from
// its counters and trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/net/fault_injector.h"
#include "src/obs/trace.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_runner.h"
#include "src/topo/dumbbell.h"
#include "src/topo/net_builder.h"

namespace bundler {
namespace {

using WdEvent = BundleController::WatchdogEvent;

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

constexpr double kBlackoutStart = 5.0;
constexpr double kBlackoutEnd = 10.0;

struct WatchdogRun {
  Simulator sim;
  DumbbellConfig cfg;
  std::unique_ptr<Net> net;

  explicit WatchdogRun(bool watchdog, double blackout_start = kBlackoutStart,
                       double blackout_end = kBlackoutEnd) {
    cfg.bottleneck_rate = Rate::Mbps(48);
    cfg.rtt = TimeDelta::Millis(40);
    cfg.sendbox.watchdog = watchdog;
    DumbbellGraph g;
    NetBuilder b = DumbbellBuilder(cfg, &g);
    b.AddFaultProfile(g.reverse_link,
                      {FaultTarget::kFeedbackOnly,
                       {{TimeDelta::SecondsF(blackout_start),
                         TimeDelta::SecondsF(blackout_end)}}});
    net = b.Build(&sim);
    StartBulkFlows(&sim, net->flows(), net->host(g.servers[0]),
                   net->host(g.clients[0]), 4, HostCcType::kCubic,
                   TimePoint::Zero());
  }

  BundleController* controller() const { return net->bundle_controller(0); }
  SendboxManager* sendbox() const { return net->sendbox(0); }

  std::vector<std::pair<TimePoint, WdEvent>> Events(WdEvent kind) const {
    std::vector<std::pair<TimePoint, WdEvent>> out;
    for (const auto& e : controller()->watchdog_log()) {
      if (e.second == kind) {
        out.push_back(e);
      }
    }
    return out;
  }
};

TEST(WatchdogTest, StaleFeedbackDegradesAndOpensShaper) {
  WatchdogRun r(/*watchdog=*/true);
  // Stop just inside the blackout, after the timeout has elapsed.
  r.sim.RunUntil(Sec(7.0));
  auto degrades = r.Events(WdEvent::kDegrade);
  ASSERT_EQ(degrades.size(), 1u);
  // Degrade fires on the first control tick after kWatchdogTimeout (500 ms)
  // of staleness; one tick of quantization slack.
  const double t = (degrades[0].first - TimePoint::Zero()).ToSeconds();
  EXPECT_GE(t, kBlackoutStart + 0.5);
  EXPECT_LE(t, kBlackoutStart + 0.6);
  // Graceful degradation == status quo: the shaper is wide open.
  EXPECT_TRUE(r.controller()->watchdog_degraded());
  EXPECT_EQ(r.sendbox()->bundle_rate(0), r.cfg.sendbox.max_rate);
  EXPECT_TRUE(r.Events(WdEvent::kResync).empty());
}

TEST(WatchdogTest, ProbesBackOffExponentially) {
  WatchdogRun r(/*watchdog=*/true);
  r.sim.RunUntil(Sec(kBlackoutEnd));
  auto probes = r.Events(WdEvent::kProbe);
  // Degrade at ~5.51 s, probes at +250 ms then doubling gaps: ~5.76, 6.26,
  // 7.26, 9.26 s; the next (13.26 s) falls outside the blackout.
  ASSERT_EQ(probes.size(), 4u);
  double prev_gap = 0;
  TimePoint prev = r.Events(WdEvent::kDegrade)[0].first;
  for (const auto& [at, ev] : probes) {
    const double gap = (at - prev).ToSeconds();
    if (prev_gap > 0) {
      // Each inter-probe gap doubles (10 ms tick quantization slack).
      EXPECT_NEAR(gap, 2 * prev_gap, 0.03);
    } else {
      EXPECT_NEAR(gap, 0.25, 0.02);
    }
    prev_gap = gap;
    prev = at;
  }
}

TEST(WatchdogTest, ResyncsWithinOneEpochAndRestoresControl) {
  WatchdogRun r(/*watchdog=*/true);
  r.sim.RunUntil(Sec(15.0));
  auto resyncs = r.Events(WdEvent::kResync);
  ASSERT_EQ(resyncs.size(), 1u);
  // The first matched feedback after the outage ends the degradation: within
  // one epoch (~RTT) plus a control tick of the blackout lifting.
  const double t = (resyncs[0].first - TimePoint::Zero()).ToSeconds();
  EXPECT_GE(t, kBlackoutEnd);
  EXPECT_LE(t, kBlackoutEnd + 0.2);
  EXPECT_FALSE(r.controller()->watchdog_degraded());
  // Control re-engaged: the live controller shapes near the bottleneck rate
  // again instead of the wide-open degraded rate.
  EXPECT_LT(r.sendbox()->bundle_rate(0).bps(),
            r.cfg.sendbox.max_rate.bps() / 2);
  EXPECT_EQ(r.Events(WdEvent::kDegrade).size(), 1u);
}

TEST(WatchdogTest, NeverDegradesBeforeTheLoopFirstCloses) {
  // Feedback dead from t=0: the loop never closed, so staleness is startup,
  // not an outage — the endhost stack owns that regime (§4.5 fallback).
  WatchdogRun r(/*watchdog=*/true, 0.0, 60.0);
  r.sim.RunUntil(Sec(20.0));
  EXPECT_TRUE(r.controller()->watchdog_log().empty());
  EXPECT_FALSE(r.controller()->watchdog_degraded());
}

TEST(WatchdogTest, UncontrollableDelayDegradesOutOfDelayControl) {
  // The asym_reverse_sweep collapse in miniature: the reverse path narrows
  // and two bulk flows keep its queue standing, so every feedback epoch
  // reports a loop RTT inflated by hundreds of ms of *reverse* queueing.
  // Feedback never goes stale — it just measures a delay the shaper cannot
  // drain — and delay control would strangle the bundle indefinitely. The
  // contract trigger must degrade instead.
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(40);
  cfg.reverse_rate = Rate::Mbps(4);
  // Provider-style capped queue: the reverse delay saturates around 256 ms
  // instead of growing without bound, so feedback keeps arriving (late)
  // rather than effectively stopping — the delay cause must stick, not
  // promote to staleness.
  cfg.reverse_buffer_bytes = 128 * 1024;
  cfg.sendbox.watchdog = true;
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 4,
                 HostCcType::kCubic, TimePoint::Zero());
  // Let the loop close and min_rtt settle on the clean path first, then
  // congest the reverse direction.
  StartBulkFlows(&sim, net.flows(), net.client(), net.server(), 2,
                 HostCcType::kCubic, Sec(2.0));
  sim.RunUntil(Sec(15.0));

  std::vector<std::pair<TimePoint, WdEvent>> degrades;
  for (const auto& e : net.controller()->watchdog_log()) {
    if (e.second == WdEvent::kDegrade) {
      degrades.push_back(e);
    }
  }
  ASSERT_GE(degrades.size(), 1u);
  // The violation clock needs kWatchdogTimeout of unbroken excess, so the
  // earliest possible degrade is 2.5 s; the reverse queue takes a moment to
  // stand, so allow a few seconds of slow-start slack.
  const double t = (degrades[0].first - TimePoint::Zero()).ToSeconds();
  EXPECT_GE(t, 2.5);
  EXPECT_LE(t, 8.0);
  // Still degraded at the end — the reverse congestion never clears — with
  // the delay cause recorded and the shaper wide open.
  EXPECT_TRUE(net.controller()->watchdog_degraded());
  EXPECT_EQ(net.controller()->watchdog_cause(),
            BundleController::WatchdogCause::kDelay);
  EXPECT_EQ(net.sendbox()->bundle_rate(0), cfg.sendbox.max_rate);
}

TEST(WatchdogTest, OffByDefaultRecordsNothing) {
  WatchdogRun r(/*watchdog=*/false);
  r.sim.RunUntil(Sec(12.0));
  EXPECT_TRUE(r.controller()->watchdog_log().empty());
  EXPECT_FALSE(r.controller()->watchdog_degraded());
}

// The fault scenarios report observability like every other scenario: a
// feedback_blackout watchdog trial carries the sim./ctr. scalars, and its
// captured watchdog trace holds the whole degrade / probe / re-sync lifecycle.
// One paper-scale trial on the calling thread: it starts no worker thread.
TEST(TrialObsTest, FeedbackBlackoutTrialReportsWatchdogLifecycle) {
  runner::RegisterBuiltinScenarios();
  const runner::Scenario* scenario =
      runner::ScenarioRegistry::Global().Find("feedback_blackout");
  ASSERT_NE(scenario, nullptr);
  std::vector<runner::TrialPoint> plan =
      runner::ExpandTrials(scenario->spec, /*trials=*/1);
  plan.erase(std::remove_if(plan.begin(), plan.end(),
                            [](const runner::TrialPoint& p) {
                              return p.variant != "bundler_watchdog";
                            }),
             plan.end());
  ASSERT_EQ(plan.size(), 1u);
  ASSERT_EQ(plan[0].seed, 1u);

  runner::RunnerOptions options;
  options.trace_mask = obs::CatBit(obs::TraceCat::kWatchdog);
  options.trace_ring = 4096;
  std::vector<runner::TrialResult> results =
      runner::TrialRunner(options).Run(*scenario, plan);

  ASSERT_EQ(results.size(), 1u);
  const std::map<std::string, double>& scalars = results[0].scalars;
  ASSERT_EQ(scalars.count("sim.events_dispatched"), 1u);
  EXPECT_GT(scalars.at("sim.events_dispatched"), 0.0);
  ASSERT_EQ(scalars.count("ctr.watchdog.s10-s100.degrades"), 1u);
  EXPECT_GE(scalars.at("ctr.watchdog.s10-s100.degrades"), 1.0);
  ASSERT_FALSE(results[0].trace.empty());
  for (const char* ev : {"wd_degrade", "wd_probe", "wd_resync"}) {
    EXPECT_NE(results[0].trace.find(std::string("\"ev\":\"") + ev + "\""),
              std::string::npos)
        << ev;
  }
}

}  // namespace
}  // namespace bundler
