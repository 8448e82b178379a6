// Quickstart: one bundle between two sites over an emulated 96 Mbit/s, 50 ms
// bottleneck, carrying a heavy-tailed web workload at 84 Mbit/s. Runs the
// same scenario with and without a Bundler (sendbox running Copa + SFQ) and
// prints the flow-completion-time comparison, the headline result of the
// paper (Fig. 9).
//
// Usage: quickstart [duration_seconds]
#include <cstdio>
#include <cstdlib>

#include "src/topo/scenario.h"
#include "src/util/table.h"

using namespace bundler;

namespace {

struct RunOutput {
  double median_slowdown;
  double p99_slowdown;
  double median_fct_small_ms;
  size_t completed;
  const char* mode;
};

RunOutput RunOnce(bool with_bundler, TimeDelta duration, const IdealFctFn& ideal) {
  ExperimentConfig cfg;
  cfg.net.bottleneck_rate = Rate::Mbps(96);
  cfg.net.rtt = TimeDelta::Millis(50);
  cfg.net.bundler_enabled = with_bundler;
  cfg.net.sendbox.scheduler = SchedulerType::kSfq;
  cfg.net.sendbox.cc = BundleCcType::kCopa;
  cfg.duration = duration;
  cfg.warmup = TimeDelta::Seconds(5);
  cfg.seed = 42;

  Simulator sim;
  Experiment exp(&sim, cfg);
  exp.Run();

  RequestFilter measured = exp.MeasuredRequests();
  QuantileEstimator slowdowns = exp.fct()->Slowdowns(ideal, measured);
  RequestFilter small = measured;
  small.max_size = kSmallFlowMaxBytes;
  QuantileEstimator small_fcts = exp.fct()->Fcts(small);

  RunOutput out;
  out.median_slowdown = slowdowns.empty() ? 0 : slowdowns.Median();
  out.p99_slowdown = slowdowns.empty() ? 0 : slowdowns.Quantile(0.99);
  out.median_fct_small_ms = small_fcts.empty() ? 0 : small_fcts.Median() * 1e3;
  out.completed = exp.fct()->completed();
  out.mode = with_bundler && exp.net()->controller() != nullptr
                 ? BundlerModeName(exp.net()->controller()->mode())
                 : "n/a";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = argc > 1 ? std::atof(argv[1]) : 20.0;
  TimeDelta duration = TimeDelta::SecondsF(seconds);

  std::printf("Bundler quickstart: 96 Mbit/s bottleneck, 50 ms RTT, 84 Mbit/s offered web "
              "load, %.0fs per run\n\n",
              seconds);

  IdealFctFn ideal = IdealFct(Rate::Mbps(96), TimeDelta::Millis(50), HostCcType::kCubic);

  RunOutput status_quo = RunOnce(/*with_bundler=*/false, duration, ideal);
  RunOutput bundled = RunOnce(/*with_bundler=*/true, duration, ideal);

  Table table({"config", "median slowdown", "p99 slowdown", "median small-flow FCT",
               "requests", "final mode"});
  table.AddRow({"Status Quo", Table::Num(status_quo.median_slowdown),
                Table::Num(status_quo.p99_slowdown),
                Table::Num(status_quo.median_fct_small_ms, 1) + " ms",
                std::to_string(status_quo.completed), status_quo.mode});
  table.AddRow({"Bundler (Copa+SFQ)", Table::Num(bundled.median_slowdown),
                Table::Num(bundled.p99_slowdown),
                Table::Num(bundled.median_fct_small_ms, 1) + " ms",
                std::to_string(bundled.completed), bundled.mode});
  table.Print();

  if (bundled.median_slowdown > 0 && status_quo.median_slowdown > 0) {
    double gain = 1.0 - bundled.median_slowdown / status_quo.median_slowdown;
    std::printf("\nBundler reduces median slowdown by %.0f%% (paper: 28%% in this "
                "configuration).\n",
                gain * 100.0);
  }
  return 0;
}
