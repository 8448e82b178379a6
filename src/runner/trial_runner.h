// Executes an expanded trial plan on a worker thread pool. Each trial owns an
// independent Simulator (the simulation core has no shared mutable state), so
// trials are embarrassingly parallel; results land in a vector indexed by
// plan position, which makes every downstream aggregate independent of the
// thread count and of scheduling order.
//
// The runner owns everything observed about a trial. It constructs the
// trial's Simulator on the worker, arms its flight recorder (when
// `trace_mask` is set) before the trial body builds anything, and after the
// body returns dumps the counter registry and simulator profile into the
// result's scalars ("ctr." / "sim." prefixes) and serializes the trace into
// TrialResult::trace. An optional per-result callback sees each result in
// plan order as soon as the plan up to it is done, so a caller can write and
// free traces while later trials still run.
#ifndef SRC_RUNNER_TRIAL_RUNNER_H_
#define SRC_RUNNER_TRIAL_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runner/scenario.h"

namespace bundler {
namespace runner {

struct RunnerOptions {
  int threads = 1;
  int trials = 0;        // <= 0: use spec.default_trials
  bool progress = false;  // per-trial completion lines on stderr
  // Trace categories armed in every trial (obs::TraceCat bits); 0 traces
  // nothing. `trace_ring` is the per-trial ring size in records (40 bytes
  // each, oldest evicted first).
  uint32_t trace_mask = 0;
  size_t trace_ring = 262144;
};

// "variant|axis=value|...|seed=N": stable id for one trial, independent of
// plan position and thread interleaving; heads each trial's trace.
std::string TrialSignature(const TrialPoint& point);

class TrialRunner {
 public:
  // Receives plan position `index` and its result, which it may modify (say,
  // free the trace once written).
  using ResultFn = std::function<void(size_t index, TrialResult* result)>;

  explicit TrialRunner(RunnerOptions options);

  // Runs every trial in `plan` through `scenario.run`. The returned vector is
  // ordered exactly like `plan` regardless of thread interleaving. Aborts if
  // a trial throws (the plan is an experiment description; a failing trial is
  // a bug, not data). `on_result`, when set, is called once per trial, in
  // plan order, as soon as that trial and every one before it have finished;
  // calls come from worker threads, one at a time, under the runner's lock.
  std::vector<TrialResult> Run(const Scenario& scenario,
                               const std::vector<TrialPoint>& plan,
                               const ResultFn& on_result = nullptr);

  // Convenience: expand + run.
  std::vector<TrialResult> Run(const Scenario& scenario);

  const RunnerOptions& options() const { return options_; }

 private:
  RunnerOptions options_;
};

}  // namespace runner
}  // namespace bundler

#endif  // SRC_RUNNER_TRIAL_RUNNER_H_
