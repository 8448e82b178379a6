// End-to-end integration tests reproducing the paper's headline behaviors at
// test scale: FCT improvement from sendbox SFQ (§7.2), pass-through under
// buffer-filling cross traffic with recovery (§5.1, Fig. 10), multipath
// detection and disable (§5.2, §7.6), competing bundles (Fig. 13), and the
// whole run's allocation rate.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/obs/trace.h"
#include "src/topo/dumbbell.h"
#include "src/topo/scenario.h"
#include "tests/alloc_counter.h"

namespace bundler {
namespace {

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

// Shared, reduced-scale version of the §7.1 scenario so tests stay fast:
// 24 Mbit/s bottleneck, 20 Mbit/s web load, 20 s.
ExperimentConfig BaseScenario(bool bundler_on) {
  ExperimentConfig cfg;
  cfg.net.bottleneck_rate = Rate::Mbps(24);
  cfg.net.rtt = TimeDelta::Millis(50);
  cfg.net.bundler_enabled = bundler_on;
  cfg.duration = TimeDelta::Seconds(20);
  cfg.warmup = TimeDelta::Seconds(4);
  cfg.bundle_web_load = {Rate::Mbps(20)};
  cfg.seed = 5;
  return cfg;
}

double MedianSlowdown(Experiment& e, const IdealFctFn& ideal) {
  return e.fct()->Slowdowns(ideal, e.MeasuredRequests()).Median();
}

TEST(IntegrationTest, BundlerSfqBeatsStatusQuoMedianSlowdown) {
  IdealFctFn ideal = IdealFct(Rate::Mbps(24), TimeDelta::Millis(50), HostCcType::kCubic);

  Simulator status_quo_sim;
  Experiment status_quo(&status_quo_sim, BaseScenario(false));
  status_quo.Run();
  double sq = MedianSlowdown(status_quo, ideal);

  Simulator with_bundler_sim;
  Experiment with_bundler(&with_bundler_sim, BaseScenario(true));
  with_bundler.Run();
  double bd = MedianSlowdown(with_bundler, ideal);

  // §7.2: Bundler+SFQ improves the median; at test scale we only require a
  // directional win with margin.
  EXPECT_LT(bd, sq * 0.95) << "status quo " << sq << " vs bundler " << bd;
  // Sanity: both ran a real workload.
  EXPECT_GT(status_quo.fct()->completed(), 500u);
  EXPECT_GT(with_bundler.fct()->completed(), 500u);
}

TEST(IntegrationTest, InNetworkFqIsTheUpperBound) {
  IdealFctFn ideal = IdealFct(Rate::Mbps(24), TimeDelta::Millis(50), HostCcType::kCubic);
  ExperimentConfig cfg = BaseScenario(false);
  cfg.net.in_network_fq = true;
  Simulator in_network_sim;
  Experiment in_network(&in_network_sim, cfg);
  in_network.Run();
  double innet = MedianSlowdown(in_network, ideal);

  Simulator with_bundler_sim;
  Experiment with_bundler(&with_bundler_sim, BaseScenario(true));
  with_bundler.Run();
  double bd = MedianSlowdown(with_bundler, ideal);

  // In-network FQ should be at least as good as Bundler (within noise).
  EXPECT_LT(innet, bd * 1.15);
}

TEST(IntegrationTest, ShortFlowsGainTheMost) {
  IdealFctFn ideal = IdealFct(Rate::Mbps(24), TimeDelta::Millis(50), HostCcType::kCubic);
  Simulator status_quo_sim;
  Experiment status_quo(&status_quo_sim, BaseScenario(false));
  status_quo.Run();
  Simulator with_bundler_sim;
  Experiment with_bundler(&with_bundler_sim, BaseScenario(true));
  with_bundler.Run();

  RequestFilter small = RequestFilter::SmallFlows();
  small.min_start = Sec(4);
  double sq_small = status_quo.fct()->Slowdowns(ideal, small).Median();
  double bd_small = with_bundler.fct()->Slowdowns(ideal, small).Median();
  EXPECT_LT(bd_small, sq_small);
}

TEST(IntegrationTest, PassThroughUnderElasticCrossTrafficAndRecovery) {
  // Fig. 10's three phases, compressed: quiet, then a backlogged Cubic cross
  // flow, then quiet again.
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(50);
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 10, HostCcType::kCubic,
                 TimePoint::Zero());

  // Phase 2: one buffer-filling cross flow from t=30 to t=60 (finite but
  // much larger than what 30 s can carry).
  TcpFlowParams cross;
  cross.size_bytes = 1'000'000'000;
  cross.cc = HostCcType::kCubic;
  sim.Schedule(TimeDelta::Seconds(30), [&]() {
    StartTcpFlow(net.flows(), net.cross_server(), net.cross_client(), cross, nullptr);
  });
  // We cannot stop a TCP flow mid-simulation, so phase 3 uses a second
  // dumbbell-free check below; here we verify entry into pass-through.
  sim.RunUntil(Sec(60));
  // Bundler must have detected the elastic competitor and switched modes.
  bool saw_pass_through = false;
  for (const auto& [t, m] : net.controller()->mode_log()) {
    if (m == BundlerMode::kPassThrough) {
      saw_pass_through = true;
    }
  }
  EXPECT_TRUE(saw_pass_through);
  EXPECT_EQ(net.controller()->mode(), BundlerMode::kPassThrough);

  // Bundle must keep a reasonable share of the link while competing: >= 25%
  // of capacity (fair share would be ~10/11).
  Rate share = net.bundle_rate_meter()->AverageRate(Sec(40), Sec(60));
  EXPECT_GT(share.Mbps(), 0.25 * 48);
}

TEST(IntegrationTest, RecoversDelayControlAfterCrossTrafficLeaves) {
  Simulator sim;
  // Every bundle cc update and reset, to check how delay control restarts.
  sim.trace().Enable(obs::CatBit(obs::TraceCat::kCc), 1 << 15);
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(50);
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 10, HostCcType::kCubic,
                 TimePoint::Zero());
  // Cross flow sized to finish around t=55 (25 s at ~half of 48 Mbit/s).
  TcpFlowParams cross;
  cross.size_bytes = 70'000'000;
  cross.cc = HostCcType::kCubic;
  sim.Schedule(TimeDelta::Seconds(30), [&]() {
    StartTcpFlow(net.flows(), net.cross_server(), net.cross_client(), cross, nullptr);
  });
  sim.RunUntil(Sec(120));
  // After the cross flow drains, the sendbox must be back in delay control.
  EXPECT_EQ(net.controller()->mode(), BundlerMode::kDelayControl);
  bool saw_pass_through = false;
  TimePoint passthrough_exit;
  for (const auto& [t, m] : net.controller()->mode_log()) {
    if (saw_pass_through && m == BundlerMode::kDelayControl) {
      passthrough_exit = t;
    }
    saw_pass_through |= (m == BundlerMode::kPassThrough);
  }
  EXPECT_TRUE(saw_pass_through);
  ASSERT_NE(passthrough_exit, TimePoint());

  // Delay control restarts warm: the controller is reseeded from the
  // measured egress rate, not cold from initial_rate, and its first rate
  // after the exit does not collapse below initial_rate.
  const std::vector<obs::TraceRecord> records = sim.trace().Snapshot();
  auto reset = std::find_if(records.begin(), records.end(), [&](const obs::TraceRecord& r) {
    return r.ev == static_cast<uint16_t>(obs::TraceEv::kCcReset) &&
           r.t_ns == passthrough_exit.nanos();
  });
  ASSERT_NE(reset, records.end());
  EXPECT_GT(static_cast<double>(reset->a), cfg.sendbox.initial_rate.bps());
  auto update = std::find_if(reset, records.end(), [](const obs::TraceRecord& r) {
    return r.ev == static_cast<uint16_t>(obs::TraceEv::kCcUpdate);
  });
  ASSERT_NE(update, records.end());
  EXPECT_GE(static_cast<double>(update->a), cfg.sendbox.initial_rate.bps());
}

TEST(IntegrationTest, ImbalancedMultipathDisablesRateControl) {
  // §5.2 / Fig. 7: four load-balanced paths with very different delays make
  // epoch feedback arrive out of order; Bundler must disable itself.
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(40);
  cfg.num_paths = 4;
  cfg.path_delay_spread = TimeDelta::Millis(60);  // paths at 20/80/140/200 ms one-way
  Dumbbell net(&sim, cfg);
  // Many flows so ECMP spreads them across paths.
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 24, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(Sec(40));
  // The sendbox periodically re-probes delay control from disabled mode, so
  // assert on the dominant behavior: disabled for the large majority of the
  // steady-state interval.
  const auto& log = net.controller()->mode_log();
  TimeDelta disabled_time = TimeDelta::Zero();
  for (size_t i = 0; i < log.size(); ++i) {
    TimePoint start = std::max(log[i].first, Sec(10));
    TimePoint end = i + 1 < log.size() ? log[i + 1].first : Sec(40);
    if (log[i].second == BundlerMode::kDisabled && end > start) {
      disabled_time += end - start;
    }
  }
  EXPECT_GT(disabled_time.ToSeconds(), 0.7 * 30.0);
}

TEST(IntegrationTest, SinglePathNeverTripsMultipathDetector) {
  // §7.6: single-path runs saw at most 0.4% out-of-order measurements; the
  // sendbox must hold delay control for the whole run.
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(40);
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 24, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(Sec(40));
  EXPECT_EQ(net.controller()->mode(), BundlerMode::kDelayControl);
  for (const auto& [t, m] : net.controller()->mode_log()) {
    EXPECT_NE(m, BundlerMode::kDisabled);
  }
  EXPECT_LT(net.controller()->measurement().OutOfOrderFraction(sim.now()), 0.01);
}

TEST(IntegrationTest, EqualDelayMultipathIsStillDetected) {
  // §7.6 found >= 20% out-of-order measurements for EVERY multipath
  // configuration, imbalanced or not: per-flow ECMP jitter alone reorders
  // epoch feedback. Equal-delay paths therefore also land in disabled mode
  // for the majority of the run (the sendbox re-probes periodically).
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(40);
  cfg.num_paths = 4;
  cfg.path_delay_spread = TimeDelta::Zero();
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 24, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(Sec(40));
  const auto& log = net.controller()->mode_log();
  TimeDelta disabled_time = TimeDelta::Zero();
  for (size_t i = 0; i < log.size(); ++i) {
    TimePoint start = std::max(log[i].first, Sec(10));
    TimePoint end = i + 1 < log.size() ? log[i + 1].first : Sec(40);
    if (log[i].second == BundlerMode::kDisabled && end > start) {
      disabled_time += end - start;
    }
  }
  EXPECT_GT(disabled_time.ToSeconds(), 0.5 * 30.0);
}

TEST(IntegrationTest, CompetingBundlesBothKeepThroughput) {
  // Fig. 13-style: two bundles sharing the bottleneck, 1:1 offered load.
  ExperimentConfig cfg;
  cfg.net.bottleneck_rate = Rate::Mbps(24);
  cfg.net.rtt = TimeDelta::Millis(50);
  cfg.net.num_bundles = 2;
  cfg.duration = TimeDelta::Seconds(25);
  cfg.warmup = TimeDelta::Seconds(5);
  cfg.bundle_web_load = {Rate::Mbps(9), Rate::Mbps(9)};
  cfg.bundle_bulk_flows = 1;
  Simulator sim;
  Experiment e(&sim, cfg);
  e.Run();
  Rate b0 = e.net()->bundle_rate_meter(0)->AverageRate(Sec(5), Sec(25));
  Rate b1 = e.net()->bundle_rate_meter(1)->AverageRate(Sec(5), Sec(25));
  // Both bundles get a solid share; neither starves.
  EXPECT_GT(b0.Mbps(), 6.0);
  EXPECT_GT(b1.Mbps(), 6.0);
  double ratio = std::max(b0.Mbps(), b1.Mbps()) / std::min(b0.Mbps(), b1.Mbps());
  EXPECT_LT(ratio, 1.8);
  // Both keep modest in-network queues (delay control held).
  EXPECT_EQ(e.net()->controller(0)->mode(), BundlerMode::kDelayControl);
  EXPECT_EQ(e.net()->controller(1)->mode(), BundlerMode::kDelayControl);
}

TEST(IntegrationTest, ExperimentWarmupFilterExcludesEarlyRequests) {
  ExperimentConfig cfg = BaseScenario(true);
  cfg.duration = TimeDelta::Seconds(8);
  cfg.warmup = TimeDelta::Seconds(4);
  Simulator sim;
  Experiment e(&sim, cfg);
  e.Run();
  RequestFilter f = e.MeasuredRequests();
  EXPECT_EQ(f.min_start, Sec(4));
  auto all = e.fct()->Fcts();
  auto measured = e.fct()->Fcts(f);
  EXPECT_LT(measured.count(), all.count());
}

TEST(IntegrationTest, SeedsChangeWorkloadButNotStructure) {
  ExperimentConfig cfg = BaseScenario(true);
  cfg.duration = TimeDelta::Seconds(6);
  cfg.seed = 1;
  Simulator e1_sim;
  Experiment e1(&e1_sim, cfg);
  e1.Run();
  cfg.seed = 2;
  Simulator e2_sim;
  Experiment e2(&e2_sim, cfg);
  e2.Run();
  EXPECT_NE(e1.fct()->total(), e2.fct()->total());
  EXPECT_GT(e1.fct()->completed(), 100u);
  EXPECT_GT(e2.fct()->completed(), 100u);
}

// The paper-default Bundler dumbbell (§7.1: 96 Mbit/s bottleneck, 84 Mbit/s
// web load) allocates for flow set-up and amortized growth (arena blocks,
// FCT records, ring doublings), never per packet: the whole run stays at or
// below one allocation per hundred dispatched events.
TEST(IntegrationTest, PaperDefaultRunAllocatesAtMostOnePerHundredEvents) {
  ExperimentConfig cfg = PaperExperimentDefaults(/*bundler_on=*/true, /*seed=*/1);
  cfg.duration = TimeDelta::Seconds(5);
  cfg.warmup = TimeDelta::Seconds(1);
  Simulator sim;
  Experiment e(&sim, cfg);
  const uint64_t before = HeapAllocs();
  e.Run();
  const uint64_t allocs = HeapAllocs() - before;
  const uint64_t events = e.sim()->events_dispatched();
  ASSERT_GT(events, 100'000u);
  EXPECT_LE(static_cast<double>(allocs), 0.01 * static_cast<double>(events))
      << allocs << " allocations over " << events << " events";
}

}  // namespace
}  // namespace bundler
