#include "src/runner/builtin_scenarios.h"

#include <utility>

#include "src/topo/partition.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {

void CheckDumbbellIndivisible(const DumbbellConfig& cfg) {
  PartitionPlan plan = PartitionTopology(DumbbellBuilder(cfg));
  // The bundle's sendbox/receivebox pair co-locates the bottleneck's
  // endpoints, collapsing the whole dumbbell into one shard. Without a bundle
  // the only delayed edges are the bottleneck and reverse links, which cut
  // the graph into a sender side and a receiver side.
  const int expected = cfg.bundler_enabled ? 1 : 2;
  BUNDLER_CHECK_MSG(plan.num_groups == expected,
                    "dumbbell partitioned into %d shards (expected %d)",
                    plan.num_groups, expected);
}

std::string BuildAndRenderDot(const NetBuilder& builder, const std::string& name) {
  Simulator scratch;
  // Build only for its validation side effect (CHECK-fails on a malformed
  // graph); the materialized Net is deliberately discarded.
  (void)builder.Build(&scratch);
  return builder.ToDot(name);
}

TopologyDotFn DumbbellTopology(DumbbellConfig cfg, std::string name) {
  return [cfg = std::move(cfg), name = std::move(name)]() {
    return BuildAndRenderDot(DumbbellBuilder(cfg), name);
  };
}

double SeriesQuantileSince(const TimeSeries& series, TimePoint from, double q) {
  QuantileEstimator est;
  for (const TimeSeries::Sample& s : series.samples()) {
    if (s.time >= from) {
      est.Add(s.value);
    }
  }
  return est.empty() ? 0.0 : est.Quantile(q);
}

void AddFctMillis(TrialResult* result, const QuantileEstimator& fct_seconds,
                  const std::string& key) {
  std::vector<double> ms = fct_seconds.samples();
  for (double& v : ms) {
    v *= 1000;
  }
  result->samples[key] = std::move(ms);
  result->scalars[key + "_p50"] = fct_seconds.empty() ? 0.0 : fct_seconds.Median() * 1000;
  result->scalars[key + "_p99"] =
      fct_seconds.empty() ? 0.0 : fct_seconds.Quantile(0.99) * 1000;
}

void RegisterBuiltinScenarios() {
  static const bool registered = []() {
    ScenarioRegistry* registry = &ScenarioRegistry::Global();
    RegisterFig02QueueShift(registry);
    RegisterFig05RateEstimate(registry);
    RegisterFig07MultipathObserve(registry);
    RegisterFig09Fct(registry);
    RegisterFig10CrossTraffic(registry);
    RegisterFig11WebCrossSweep(registry);
    RegisterFig12ElasticCrossSweep(registry);
    RegisterFig13CompetingBundles(registry);
    RegisterFig14SendboxCc(registry);
    RegisterFig16Wan(registry);
    RegisterAsymReverseSweep(registry);
    RegisterFeedbackBlackout(registry);
    RegisterFatTreeIncast(registry);
    RegisterCdnEdgeFlashCrowd(registry);
    RegisterFig15Proxy(registry);
    RegisterSec72OtherPolicies(registry);
    RegisterSec74EndhostCc(registry);
    RegisterSec76MultipathThreshold(registry);
    return true;
  }();
  (void)registered;
}

}  // namespace runner
}  // namespace bundler
