#include "src/runner/builtin_scenarios.h"

#include <utility>

namespace bundler {
namespace runner {

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
