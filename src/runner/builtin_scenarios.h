// Built-in scenarios reproducing the paper's figures on the experiment
// runner. Registration is explicit (no static initializers) so the link
// never silently drops a scenario: call RegisterBuiltinScenarios() once at
// startup from any tool that wants them (bundler_run, tests).
#ifndef SRC_RUNNER_BUILTIN_SCENARIOS_H_
#define SRC_RUNNER_BUILTIN_SCENARIOS_H_

#include <string>

#include "src/runner/scenario.h"
#include "src/topo/dumbbell.h"

namespace bundler {
namespace runner {

// Idempotent: safe to call more than once per process.
void RegisterBuiltinScenarios();

// Builds `builder`'s graph into a scratch simulator — running the builder's
// full validation, so topology providers double as construction smoke tests —
// then renders it as Graphviz DOT.
std::string BuildAndRenderDot(const NetBuilder& builder, const std::string& name);

// Topology provider for dumbbell-shaped scenarios.
TopologyDotFn DumbbellTopology(DumbbellConfig cfg, std::string name);

// Quantile of a monitor time series over samples at or after `from` (0 when
// none) — e.g. post-warmup per-hop queue delay.
double SeriesQuantileSince(const TimeSeries& series, TimePoint from, double q);

// Reports an FCT distribution (seconds) under `key` in milliseconds: the
// pooled sample vector plus `<key>_p50` / `<key>_p99` scalars.
void AddFctMillis(TrialResult* result, const QuantileEstimator& fct_seconds,
                  const std::string& key);

// Individual registrations (each CHECK-fails on double registration; prefer
// RegisterBuiltinScenarios).
void RegisterFig02QueueShift(ScenarioRegistry* registry);
void RegisterFig05RateEstimate(ScenarioRegistry* registry);
void RegisterFig07MultipathObserve(ScenarioRegistry* registry);
void RegisterFig09Fct(ScenarioRegistry* registry);
void RegisterFig10CrossTraffic(ScenarioRegistry* registry);
void RegisterFig11WebCrossSweep(ScenarioRegistry* registry);
void RegisterFig12ElasticCrossSweep(ScenarioRegistry* registry);
void RegisterFig13CompetingBundles(ScenarioRegistry* registry);
void RegisterFig14SendboxCc(ScenarioRegistry* registry);
void RegisterFig16Wan(ScenarioRegistry* registry);
void RegisterAsymReverseSweep(ScenarioRegistry* registry);
void RegisterFeedbackBlackout(ScenarioRegistry* registry);
void RegisterCdnEdgeFlashCrowd(ScenarioRegistry* registry);
void RegisterFig15Proxy(ScenarioRegistry* registry);
void RegisterSec72OtherPolicies(ScenarioRegistry* registry);
void RegisterSec74EndhostCc(ScenarioRegistry* registry);
void RegisterSec76MultipathThreshold(ScenarioRegistry* registry);

}  // namespace runner
}  // namespace bundler

#endif  // SRC_RUNNER_BUILTIN_SCENARIOS_H_
