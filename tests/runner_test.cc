// Unit tests for the experiment orchestration subsystem (src/runner): spec
// expansion (sweep grid x seeds), thread-count-independent execution and
// serialization, the in-order per-result callback, aggregation math
// (percentiles / confidence intervals), and the built-in scenario registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/runner/builtin_scenarios.h"
#include "src/runner/result_sink.h"
#include "src/runner/scenario.h"
#include "src/runner/trial_runner.h"
#include "src/topo/scenario.h"

namespace bundler {
namespace runner {
namespace {

ScenarioSpec TwoAxisSpec() {
  ScenarioSpec spec;
  spec.name = "test_two_axis";
  spec.variants = {"x", "y"};
  spec.axes = {{"a", {1, 2}}, {"b", {10, 20, 30}}};
  spec.default_trials = 2;
  spec.seed_base = 5;
  return spec;
}

TEST(ExpandTrialsTest, CountsAndOrdering) {
  ScenarioSpec spec = TwoAxisSpec();
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  // 2 variants x (2 x 3) grid x 2 seeds.
  ASSERT_EQ(plan.size(), 24u);

  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].trial_index, static_cast<int>(i));
  }
  // Variants outermost.
  EXPECT_EQ(plan.front().variant, "x");
  EXPECT_EQ(plan[11].variant, "x");
  EXPECT_EQ(plan[12].variant, "y");
  EXPECT_EQ(plan.back().variant, "y");
  // Seeds innermost: consecutive slots differ only in seed.
  EXPECT_EQ(plan[0].seed, 5u);
  EXPECT_EQ(plan[1].seed, 6u);
  EXPECT_EQ(plan[0].params, plan[1].params);
  // First axis outermost, second axis next: cells iterate b fastest.
  EXPECT_DOUBLE_EQ(plan[0].Param("a"), 1);
  EXPECT_DOUBLE_EQ(plan[0].Param("b"), 10);
  EXPECT_DOUBLE_EQ(plan[2].Param("b"), 20);
  EXPECT_DOUBLE_EQ(plan[4].Param("b"), 30);
  EXPECT_DOUBLE_EQ(plan[6].Param("a"), 2);
  EXPECT_DOUBLE_EQ(plan[6].Param("b"), 10);
}

TEST(ExpandTrialsTest, TrialOverrideAndNoAxes) {
  ScenarioSpec spec;
  spec.name = "test_plain";
  spec.default_trials = 3;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 5);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_TRUE(plan[0].params.empty());
  EXPECT_EQ(plan[4].seed, 5u);
  EXPECT_EQ(plan[0].variant, "default");
}

// Deterministic synthetic trial: metrics are pure functions of the point. It
// builds nothing into the runner's simulator.
TrialResult SyntheticTrial(const TrialPoint& p, Simulator* /*sim*/) {
  double base = p.Param("a") * 100 + static_cast<double>(p.seed);
  if (p.variant == "y") {
    base += 1000;
  }
  TrialResult r;
  r.scalars["base"] = base;
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) {
    samples.push_back(base + i);
  }
  r.samples["dist"] = samples;
  return r;
}

ScenarioSpec SyntheticSpec() {
  ScenarioSpec spec;
  spec.name = "test_synth";
  spec.variants = {"x", "y"};
  spec.axes = {{"a", {1, 2, 3}}};
  spec.default_trials = 4;
  return spec;
}

TEST(TrialRunnerTest, ResultsOrderedLikePlanRegardlessOfThreads) {
  Scenario scenario{SyntheticSpec(), SyntheticTrial};
  std::vector<TrialPoint> plan = ExpandTrials(scenario.spec, 0);
  for (int threads : {1, 4, 7}) {
    RunnerOptions options;
    options.threads = threads;
    TrialRunner runner(options);
    std::vector<TrialResult> results = runner.Run(scenario, plan);
    ASSERT_EQ(results.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(results[i].scalars.at("base"),
                SyntheticTrial(plan[i], nullptr).scalars.at("base"))
          << "threads=" << threads << " trial=" << i;
    }
  }
}

TEST(TrialRunnerTest, JsonAndCsvByteIdenticalAcrossThreadCounts) {
  Scenario scenario{SyntheticSpec(), SyntheticTrial};
  std::vector<TrialPoint> plan = ExpandTrials(scenario.spec, 0);

  auto render = [&](int threads) {
    RunnerOptions options;
    options.threads = threads;
    TrialRunner runner(options);
    ScenarioSummary summary =
        Aggregate(scenario.spec, plan, runner.Run(scenario, plan));
    return std::pair{ToJson(summary), ToCsv(summary)};
  };
  auto [json1, csv1] = render(1);
  for (int threads : {2, 4, 7}) {
    auto [json_n, csv_n] = render(threads);
    EXPECT_EQ(json1, json_n) << "threads=" << threads;
    EXPECT_EQ(csv1, csv_n) << "threads=" << threads;
  }
  EXPECT_NE(json1.find("\"scenario\": \"test_synth\""), std::string::npos);
}

// The per-result callback sees every trial once, in plan order, as soon as
// the plan up to it is done. Trial i dispatches (8 - i) * 2,000 events, so
// later trials are shorter and finish first; with several threads trial 0
// also waits until a later trial has finished, which makes the out-of-order
// finish certain rather than likely.
TEST(TrialRunnerTest, ResultCallbackSeesPlanOrderWhenTrialsFinishOutOfOrder) {
  constexpr size_t kTrials = 8;
  constexpr size_t kEventsPerStep = 2000;
  ScenarioSpec spec;
  spec.name = "test_out_of_order";
  spec.variants = {"x"};
  spec.default_trials = static_cast<int>(kTrials);
  const std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  for (int threads : {1, 4}) {
    std::mutex mu;
    std::vector<size_t> finish_order;  // guarded by mu
    std::atomic<bool> later_finished{false};
    auto body = [&](const TrialPoint& p, Simulator* sim) {
      const size_t i = static_cast<size_t>(p.trial_index);
      for (size_t k = 0; k < (kTrials - i) * kEventsPerStep; ++k) {
        sim->Schedule(TimeDelta::Micros(static_cast<int64_t>(k)), []() {});
      }
      sim->RunAll();
      while (threads > 1 && i == 0 && !later_finished.load()) {
        std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lock(mu);
      finish_order.push_back(i);
      if (i > 0) {
        later_finished.store(true);
      }
      return TrialResult{};
    };
    std::vector<size_t> seen;
    RunnerOptions options;
    options.threads = threads;
    TrialRunner(options).Run(
        Scenario{spec, body}, plan, [&](size_t index, TrialResult* r) {
          seen.push_back(index);
          EXPECT_EQ(r->scalars.at("sim.events_dispatched"),
                    static_cast<double>((kTrials - index) * kEventsPerStep));
          std::lock_guard<std::mutex> lock(mu);
          for (size_t j = 0; j <= index; ++j) {
            EXPECT_NE(std::find(finish_order.begin(), finish_order.end(), j),
                      finish_order.end())
                << "trial " << j << " reported before it finished";
          }
        });
    std::vector<size_t> in_order(kTrials);
    std::iota(in_order.begin(), in_order.end(), 0);
    EXPECT_EQ(seen, in_order) << "threads=" << threads;
    if (threads > 1) {
      EXPECT_NE(finish_order, in_order);
    }
  }
}

// End-to-end determinism through the real simulator: a small two-variant
// dumbbell experiment, with the obs scalars the runner adds to every trial,
// must serialize identically no matter the thread count.
TrialResult TinyExperimentTrial(const TrialPoint& p, Simulator* sim) {
  ExperimentConfig cfg = PaperExperimentDefaults(p.variant == "bundler", p.seed);
  cfg.bundle_web_load = {Rate::Mbps(30)};
  cfg.duration = TimeDelta::Seconds(3);
  cfg.warmup = TimeDelta::Seconds(1);
  Experiment e(sim, cfg);
  e.Run();
  TrialResult r;
  r.scalars["completed"] = static_cast<double>(e.fct()->completed());
  r.samples["fct_s"] = e.fct()->Fcts(e.MeasuredRequests()).samples();
  return r;
}

TEST(TrialRunnerTest, RealSimulationDeterministicAcrossThreadCounts) {
  ScenarioSpec spec;
  spec.name = "test_tiny_experiment";
  spec.variants = {"status_quo", "bundler"};
  spec.default_trials = 2;
  Scenario scenario{spec, TinyExperimentTrial};
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);

  auto render = [&](int threads) {
    RunnerOptions options;
    options.threads = threads;
    TrialRunner runner(options);
    ScenarioSummary summary = Aggregate(spec, plan, runner.Run(scenario, plan));
    return std::pair{ToJson(summary), ToCsv(summary)};
  };
  auto [json1, csv1] = render(1);
  auto [json4, csv4] = render(4);
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(csv1, csv4);
  // Sanity: the experiment actually completed requests, and the counter
  // registry reached the output.
  EXPECT_EQ(json1.find("\"completed\": {\"n\": 2, \"mean\": 0"), std::string::npos);
  EXPECT_NE(json1.find("\"ctr."), std::string::npos);
}

TEST(AggregateTest, ScalarStatsAcrossSeeds) {
  ScenarioSpec spec;
  spec.name = "test_agg";
  spec.default_trials = 4;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(4);
  const double values[4] = {1, 2, 3, 10};
  for (int i = 0; i < 4; ++i) {
    results[static_cast<size_t>(i)].scalars["m"] = values[i];
  }
  ScenarioSummary summary = Aggregate(spec, plan, results);
  ASSERT_EQ(summary.cells.size(), 1u);
  const ScalarStat& s = summary.cells[0].scalars.at("m");
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  // Sample stddev of {1,2,3,10} = sqrt(50/3); CI = 1.96 * s / sqrt(4).
  double stddev = std::sqrt(50.0 / 3.0);
  EXPECT_NEAR(s.stddev, stddev, 1e-12);
  EXPECT_NEAR(s.ci95_half, 1.96 * stddev / 2.0, 1e-12);
}

TEST(AggregateTest, SamplePoolingAndPercentiles) {
  ScenarioSpec spec;
  spec.name = "test_pool";
  spec.default_trials = 2;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(2);
  // Pooled: 1..100. Quantile(q) interpolates position q * (n - 1).
  for (int i = 1; i <= 100; ++i) {
    results[i % 2].samples["d"].push_back(i);
  }
  ScenarioSummary summary = Aggregate(spec, plan, results);
  ASSERT_EQ(summary.cells.size(), 1u);
  const SampleStat& s = summary.cells[0].samples.at("d");
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_DOUBLE_EQ(s.p25, 25.75);
  EXPECT_DOUBLE_EQ(s.p75, 75.25);
  EXPECT_DOUBLE_EQ(s.p95, 95.05);
  EXPECT_DOUBLE_EQ(s.p99, 99.01);
}

TEST(AggregateTest, CellsFollowPlanOrderAndFindCell) {
  ScenarioSpec spec = TwoAxisSpec();
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    results[i].scalars["idx"] = static_cast<double>(i);
  }
  ScenarioSummary summary = Aggregate(spec, plan, results);
  // 2 variants x 6 grid cells.
  ASSERT_EQ(summary.cells.size(), 12u);
  EXPECT_EQ(summary.trials, 2);
  for (const CellSummary& cell : summary.cells) {
    EXPECT_EQ(cell.trials, 2u);
  }
  const CellSummary* cell = FindCell(summary, "y", {{"a", 2}, {"b", 30}});
  ASSERT_NE(cell, nullptr);
  // Last cell of the plan: trials 22 and 23.
  EXPECT_DOUBLE_EQ(cell->scalars.at("idx").mean, 22.5);
  EXPECT_EQ(FindCell(summary, "nope"), nullptr);
  EXPECT_EQ(FindCell(summary, "y", {{"a", 99}}), nullptr);
}

TEST(ResultSinkTest, JsonHandlesNonFiniteAndEmpty) {
  ScenarioSpec spec;
  spec.name = "test_nonfinite";
  spec.default_trials = 1;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(1);
  results[0].scalars["bad"] = std::nan("");
  ScenarioSummary summary = Aggregate(spec, plan, results);
  std::string json = ToJson(summary);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos);

  ScenarioSummary empty;
  empty.scenario = "empty";
  EXPECT_NE(ToJson(empty).find("\"cells\": []"), std::string::npos);
}

TEST(RegistryTest, BuiltinScenariosRegisteredAndListed) {
  RegisterBuiltinScenarios();
  RegisterBuiltinScenarios();  // idempotent
  ScenarioRegistry& registry = ScenarioRegistry::Global();
  ASSERT_NE(registry.Find("fig09_fct"), nullptr);
  ASSERT_NE(registry.Find("fig10_cross_traffic"), nullptr);
  ASSERT_NE(registry.Find("fig13_competing_bundles"), nullptr);
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);

  // Fig. 10 is one scenario: status quo, the default control loop and the
  // robust-exit loop, with no companion scenario beside it.
  EXPECT_EQ(registry.Find("fig10_cross_traffic")->spec.variants,
            (std::vector<std::string>{"status_quo", "bundler", "bundler_robust"}));
  std::vector<std::string> fig10_names;
  for (const Scenario* s : registry.List()) {
    if (s->spec.name.rfind("fig10_", 0) == 0) {
      fig10_names.push_back(s->spec.name);
    }
  }
  EXPECT_EQ(fig10_names, std::vector<std::string>{"fig10_cross_traffic"});

  const Scenario* fig13 = registry.Find("fig13_competing_bundles");
  ASSERT_EQ(fig13->spec.axes.size(), 1u);
  EXPECT_EQ(fig13->spec.axes[0].name, "load0_mbps");

  std::vector<const Scenario*> all = registry.List();
  ASSERT_GE(all.size(), 3u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->spec.name, all[i]->spec.name);
  }
}

TEST(RegistryTest, SweepScenariosRegisteredWithAxes) {
  RegisterBuiltinScenarios();
  ScenarioRegistry& registry = ScenarioRegistry::Global();

  const Scenario* fig11 = registry.Find("fig11_web_cross_sweep");
  ASSERT_NE(fig11, nullptr);
  ASSERT_EQ(fig11->spec.axes.size(), 1u);
  EXPECT_EQ(fig11->spec.axes[0].name, "cross_mbps");
  EXPECT_EQ(fig11->spec.axes[0].values.size(), 7u);
  EXPECT_EQ(fig11->spec.variants.size(), 3u);

  const Scenario* fig12 = registry.Find("fig12_elastic_cross_sweep");
  ASSERT_NE(fig12, nullptr);
  ASSERT_EQ(fig12->spec.axes.size(), 1u);
  EXPECT_EQ(fig12->spec.axes[0].name, "competing_flows");
  EXPECT_EQ(fig12->spec.axes[0].values,
            (std::vector<double>{10, 30, 50}));

  // Fig. 5 and Fig. 6 share one delay x rate sweep.
  const Scenario* fig05 = registry.Find("fig05_rate_estimate");
  ASSERT_NE(fig05, nullptr);
  EXPECT_EQ(fig05->spec.variants, (std::vector<std::string>{"bundler"}));
  ASSERT_EQ(fig05->spec.axes.size(), 2u);
  EXPECT_EQ(fig05->spec.axes[0].name, "delay_ms");
  EXPECT_EQ(fig05->spec.axes[0].values, (std::vector<double>{20, 50, 100}));
  EXPECT_EQ(fig05->spec.axes[1].name, "rate_mbps");
  EXPECT_EQ(fig05->spec.axes[1].values, (std::vector<double>{24, 48, 96}));

  // fig09, fig14 and §7.4 run one trial body under different variants.
  const Scenario* fig09 = registry.Find("fig09_fct");
  ASSERT_NE(fig09, nullptr);
  EXPECT_EQ(fig09->spec.variants,
            (std::vector<std::string>{"status_quo", "bundler_sfq", "bundler_fifo",
                                      "in_network"}));
  EXPECT_TRUE(fig09->spec.axes.empty());
  const Scenario* fig14 = registry.Find("fig14_sendbox_cc");
  ASSERT_NE(fig14, nullptr);
  EXPECT_EQ(fig14->spec.variants,
            (std::vector<std::string>{"status_quo", "bundler_copa", "bundler_basic_delay",
                                      "bundler_bbr"}));
  EXPECT_TRUE(fig14->spec.axes.empty());
  EXPECT_EQ(fig14->spec.default_trials, 2);
  const Scenario* sec74 = registry.Find("sec74_endhost_cc");
  ASSERT_NE(sec74, nullptr);
  EXPECT_EQ(sec74->spec.variants,
            (std::vector<std::string>{"status_quo_cubic", "bundler_cubic",
                                      "status_quo_reno", "bundler_reno", "status_quo_bbr",
                                      "bundler_bbr"}));
  EXPECT_TRUE(sec74->spec.axes.empty());

  // Fig. 7 and §7.6 run one multipath trial body.
  const Scenario* fig07 = registry.Find("fig07_multipath_observe");
  ASSERT_NE(fig07, nullptr);
  EXPECT_EQ(fig07->spec.variants, (std::vector<std::string>{"bundler"}));
  EXPECT_TRUE(fig07->spec.axes.empty());
  const Scenario* sec76 = registry.Find("sec76_multipath_threshold");
  ASSERT_NE(sec76, nullptr);
  EXPECT_EQ(sec76->spec.variants, (std::vector<std::string>{"bundler"}));
  ASSERT_EQ(sec76->spec.axes.size(), 3u);
  EXPECT_EQ(sec76->spec.axes[0].name, "rate_mbps");
  EXPECT_EQ(sec76->spec.axes[0].values, (std::vector<double>{24, 96}));
  EXPECT_EQ(sec76->spec.axes[1].name, "rtt_ms");
  EXPECT_EQ(sec76->spec.axes[1].values, (std::vector<double>{20, 100, 300}));
  EXPECT_EQ(sec76->spec.axes[2].name, "paths");
  EXPECT_EQ(sec76->spec.axes[2].values, (std::vector<double>{1, 2, 4, 8, 32}));

  // §7.2's two studies, each a status-quo / Bundler pair.
  const Scenario* sec72 = registry.Find("sec72_other_policies");
  ASSERT_NE(sec72, nullptr);
  EXPECT_EQ(sec72->spec.variants,
            (std::vector<std::string>{"fq_codel_status_quo", "fq_codel_bundler",
                                      "prio_status_quo", "prio_bundler"}));
  EXPECT_TRUE(sec72->spec.axes.empty());
}

}  // namespace
}  // namespace runner
}  // namespace bundler
