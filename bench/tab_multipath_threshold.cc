// §7.6 robustness study: the out-of-order fraction heuristic across network
// conditions. The paper re-ran the Fig. 10 setup over bottleneck bandwidths
// 12-96 Mbit/s, RTTs 10-300 ms, and 1-32 load-balanced paths, and found the
// maximum single-path reading was 0.4% while the minimum multipath reading
// was 20% — two orders of magnitude of separation, so a 5% threshold cleanly
// classifies.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/app/workload.h"
#include "src/topo/dumbbell.h"

namespace bundler {
namespace {

double MeasureOooFraction(double mbps, double rtt_ms, int paths) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(mbps);
  cfg.rtt = TimeDelta::Millis(rtt_ms);
  cfg.num_paths = paths;
  // Paths differ in delay as in the paper's emulation (Fig. 7 shows strongly
  // imbalanced per-path delays).
  cfg.path_delay_spread = TimeDelta::Millis(rtt_ms);
  // Measure the raw heuristic: keep rate control active throughout.
  cfg.sendbox.multipath_detection = false;
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), std::max(8, 4 * paths),
                 HostCcType::kCubic, TimePoint::Zero());
  // Average the reading over the second half of the run.
  double sum = 0;
  int n = 0;
  const double total_s = 30;
  for (double t = total_s / 2; t <= total_s; t += 1.0) {
    sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(t));
    sum += net.controller()->measurement().OutOfOrderFraction(sim.now());
    ++n;
  }
  return sum / n;
}

void Run() {
  bench::PrintHeader(
      "§7.6 — multipath detection threshold robustness",
      "max single-path reading 0.4%; min multipath (2-32 paths) reading 20%; "
      "a 5% threshold separates them by orders of magnitude");

  const std::vector<double> bandwidths = {24, 96};
  const std::vector<double> rtts = {20, 100, 300};
  const std::vector<int> path_counts = {1, 2, 4, 8, 32};

  Table table({"bw (Mbit/s)", "rtt (ms)", "paths", "avg OOO fraction"});
  double max_single = 0;
  double min_multi = 1;

  for (double bw : bandwidths) {
    for (double rtt : rtts) {
      for (int paths : path_counts) {
        double frac = MeasureOooFraction(bw, rtt, paths);
        table.AddRow({Table::Num(bw, 0), Table::Num(rtt, 0), std::to_string(paths),
                      Table::Pct(frac)});
        if (paths == 1) {
          max_single = std::max(max_single, frac);
        } else {
          min_multi = std::min(min_multi, frac);
        }
      }
    }
  }
  table.Print();

  bench::PrintHeadline(
      "max single-path = %.2f%%, min multipath = %.1f%% (paper: 0.4%% vs 20%%); "
      "5%% threshold classifies every configuration correctly: %s",
      max_single * 100, min_multi * 100,
      (max_single < 0.05 && min_multi > 0.05) ? "yes" : "NO");
}

}  // namespace
}  // namespace bundler

int main() {
  bundler::Run();
  return 0;
}
