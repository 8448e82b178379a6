// Figure 16 (§8) as a registered scenario: the real-Internet deployment,
// reproduced over emulated WAN paths (Iowa -> five regions; see
// src/topo/internet.h for the substitution rationale). Each path carries 10
// closed-loop 40-byte UDP request/response pairs plus 20 backlogged flows.
// Variants: Base (no bulk — the RTT floor), Status Quo (bulk, no Bundler),
// and Bundler (bulk + SFQ sendbox); the `path` axis sweeps the five regions.
// The paper reports Status Quo RTTs far above Base (queueing outside either
// site), Bundler restoring near-Base RTTs (57% lower than Status Quo at the
// median) with bulk throughput within 1%.
#include <string>

#include "src/runner/builtin_scenarios.h"
#include "src/topo/internet.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr auto kDuration = TimeDelta::Seconds(60);
constexpr auto kWarmup = TimeDelta::Seconds(15);

WanMode VariantMode(const std::string& name) {
  if (name == "base") {
    return WanMode::kBase;
  }
  if (name == "status_quo") {
    return WanMode::kStatusQuo;
  }
  BUNDLER_CHECK_MSG(name == "bundler", "unknown fig16 variant '%s'", name.c_str());
  return WanMode::kBundler;
}

TrialResult RunTrial(const TrialPoint& point, Simulator* sim) {
  std::vector<WanPathSpec> paths = DefaultWanPaths();
  size_t path = static_cast<size_t>(point.Param("path"));
  BUNDLER_CHECK_MSG(path < paths.size(), "fig16 path index %zu out of range", path);

  WanRunResult r = RunWanPath(sim, paths[path], VariantMode(point.variant), kDuration,
                              kWarmup, point.seed);
  TrialResult out;
  out.scalars["rtt_ms_p10"] = r.rtt_ms_p10;
  out.scalars["rtt_ms_p50"] = r.rtt_ms_p50;
  out.scalars["rtt_ms_p90"] = r.rtt_ms_p90;
  out.scalars["rtt_ms_p99"] = r.rtt_ms_p99;
  out.scalars["bulk_goodput_mbps"] = r.bulk_goodput_mbps;
  out.samples["rtt_ms"] = r.rtt_ms_samples;
  return out;
}

}  // namespace

void RegisterFig16Wan(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig16_wan";
  spec.summary =
      "Fig 16 / §8: emulated WAN paths (hub -> five regions); Bundler cuts "
      "request-response RTTs ~57% vs StatusQuo at no bulk throughput cost";
  spec.variants = {"base", "status_quo", "bundler"};
  spec.axes = {{"path", {0, 1, 2, 3, 4}}};
  // Seeds jitter the bulk-flow start times (see RunWanPath); two per cell
  // keeps the 15-cell sweep affordable while exposing run-to-run variance.
  spec.default_trials = 2;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(WanPathBuilder(DefaultWanPaths()[0], /*bundled=*/true),
                             "fig16_wan");
  });
}

}  // namespace runner
}  // namespace bundler
