// Composability and multi-tenant sites (§9 "Discussion"): several independent
// bundles — e.g. one per department — leave the same site through the same
// in-network bottleneck. Each department deploys its own sendbox policy; the
// bundles' inner control loops split the bottleneck fairly per-site rather
// than per-flow, so a department cannot grab extra bandwidth by opening more
// connections.
//
// Usage: composable_bundles [duration_seconds]
#include <cstdio>
#include <cstdlib>

#include "src/topo/scenario.h"
#include "src/util/table.h"

using namespace bundler;

int main(int argc, char** argv) {
  double seconds = argc > 1 ? std::atof(argv[1]) : 30.0;

  std::printf(
      "Composable bundles example: three departments share a 96 Mbit/s\n"
      "bottleneck. Department C opens 8x more bulk connections than A or B;\n"
      "per-site rate control still shares the link evenly.\n\n");

  ExperimentConfig cfg;
  cfg.net.bottleneck_rate = Rate::Mbps(96);
  cfg.net.rtt = TimeDelta::Millis(50);
  cfg.net.num_bundles = 3;
  cfg.duration = TimeDelta::SecondsF(seconds);
  cfg.warmup = TimeDelta::SecondsF(seconds * 0.25);
  // Equal web load per department; department 2 also runs 8 bulk flows vs 1.
  cfg.bundle_web_load = {Rate::Mbps(20), Rate::Mbps(20), Rate::Mbps(20)};
  cfg.bundle_bulk_flows = 0;
  Simulator sim;
  Experiment e(&sim, cfg);

  // Departments A and B: one bulk flow each. Department C: eight.
  for (int b = 0; b < 3; ++b) {
    int flows = b == 2 ? 8 : 1;
    StartBulkFlows(e.sim(), e.net()->flows(), e.net()->server(b), e.net()->client(b),
                   flows, HostCcType::kCubic, TimePoint::Zero());
  }
  e.Run();

  Table table({"department", "bulk flows", "bundle tput (Mbit/s)", "final mode"});
  const char* names[3] = {"A", "B", "C"};
  double tputs[3];
  for (int b = 0; b < 3; ++b) {
    tputs[b] = e.net()
                   ->bundle_rate_meter(b)
                   ->AverageRate(TimePoint::Zero() + cfg.warmup,
                                 TimePoint::Zero() + cfg.duration)
                   .Mbps();
    table.AddRow({names[b], std::to_string(b == 2 ? 8 : 1), Table::Num(tputs[b], 1),
                  BundlerModeName(e.net()->controller(b)->mode())});
  }
  table.Print();

  double max_share = std::max({tputs[0], tputs[1], tputs[2]});
  double min_share = std::min({tputs[0], tputs[1], tputs[2]});
  std::printf(
      "\nShare ratio max/min = %.2f. The allocation is per-site, not per-flow\n"
      "(§9): department C's 8 connections do not buy it 8x the bandwidth of A\n"
      "or B. Aggregate Copa's inter-bundle convergence oscillates on this\n"
      "timescale, so shares are per-site-fair only on average, not instant-\n"
      "for-instant.\n",
      min_share > 0 ? max_share / min_share : 0.0);
  return 0;
}
