// Declarative experiment scenarios. A ScenarioSpec describes *what* to run —
// named configuration variants, numeric parameter sweep axes, and how many
// seeded trials per cell — while the scenario's TrialFn knows *how* to run a
// single (variant, sweep point, seed) trial and report its metrics. The
// TrialRunner expands the spec into a trial plan and executes it (in
// parallel), handing each trial a fresh Simulator whose observability it
// owns; the ResultSink aggregates per-cell statistics. Scenarios live in
// a registry so `bundler_run`, `scripts/repro.sh` and tests execute them by
// name instead of hand-wiring topology + workload + metrics glue per figure.
#ifndef SRC_RUNNER_SCENARIO_H_
#define SRC_RUNNER_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bundler {

class Simulator;

namespace runner {

// One numeric sweep dimension, e.g. {"load0_mbps", {42, 56}}.
struct SweepAxis {
  std::string name;
  std::vector<double> values;
};

struct ScenarioSpec {
  std::string name;     // registry key, e.g. "fig09_fct"
  std::string summary;  // one-liner for `bundler_run --list`

  // Named configuration variants (e.g. "status_quo", "bundler_sfq"). Every
  // variant is run at every sweep point. Must be non-empty.
  std::vector<std::string> variants = {"default"};

  // Cartesian-product sweep axes; empty means a single sweep point.
  std::vector<SweepAxis> axes;

  // Seeded repetitions per (variant, sweep point) cell: seeds
  // seed_base .. seed_base + trials - 1.
  int default_trials = 3;
  uint64_t seed_base = 1;
};

// One executable trial from the expanded plan.
struct TrialPoint {
  std::string variant;
  // One (axis name, value) per spec axis, in axis order.
  std::vector<std::pair<std::string, double>> params;
  uint64_t seed = 1;
  int trial_index = 0;  // position in the expanded plan

  // Value of a sweep axis; CHECK-fails if the axis does not exist.
  double Param(const std::string& name) const;
};

// Metrics reported by one trial. Scalars are aggregated across a cell's
// seeds (mean/median/CI over `trials` values); sample vectors are pooled
// across the cell's seeds before quantiles are taken (the paper pools
// request-level distributions across runs the same way).
struct TrialResult {
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> samples;
  // The trial's serialized JSONL trace; empty unless the runner armed one.
  std::string trace;
};

// Builds the trial's topology into `sim`, runs it, and returns its metrics.
// The TrialRunner owns `sim`: it arms the tracer before the call, and dumps
// the counters and captures the trace after the body (and the topology it
// built) is gone.
using TrialFn = std::function<TrialResult(const TrialPoint&, Simulator* sim)>;

// Emits a Graphviz DOT rendering of the scenario's (default-variant)
// topology. Providers are expected to *build* the topology into a scratch
// simulator before rendering, so invoking them doubles as a construction
// smoke test (`bundler_run --dump-topology`, scripts/check.sh).
using TopologyDotFn = std::function<std::string()>;

struct Scenario {
  ScenarioSpec spec;
  TrialFn run;
  TopologyDotFn topology = nullptr;  // null when the scenario has no provider
};

class ScenarioRegistry {
 public:
  // Process-wide registry used by bundler_run and tests.
  static ScenarioRegistry& Global();

  // CHECK-fails on duplicate names or empty variants.
  void Register(ScenarioSpec spec, TrialFn run, TopologyDotFn topology = nullptr);

  const Scenario* Find(const std::string& name) const;
  std::vector<const Scenario*> List() const;  // sorted by name
  bool empty() const { return scenarios_.empty(); }

 private:
  std::map<std::string, Scenario> scenarios_;
};

// Expands variants x sweep grid x seeds into the ordered trial plan: variants
// outermost, then axes (first axis outermost), then seeds innermost, so each
// (variant, sweep point) cell occupies `trials` consecutive plan slots.
std::vector<TrialPoint> ExpandTrials(const ScenarioSpec& spec, int trials);

}  // namespace runner
}  // namespace bundler

#endif  // SRC_RUNNER_SCENARIO_H_
