// Per-trial observability glue between the scenario registry and src/obs/.
//
// Every scenario's RunTrial brackets its simulation with BeginTrialObs /
// EndTrialObs. Begin arms the simulator's flight recorder when tracing was
// requested (ArmTrace, set from `bundler_run --trace=...`); End dumps the
// counter registry and simulator profile into the trial's result scalars
// (prefix "ctr." / "sim.") and captures the serialized trace.
//
// Captured traces are keyed by a deterministic trial signature
// (variant|params|seed) and emitted signature-sorted, so the concatenated
// trace output for a given (scenario, seed base) is byte-identical no matter
// how many worker threads executed the plan.
#ifndef SRC_RUNNER_TRIAL_OBS_H_
#define SRC_RUNNER_TRIAL_OBS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/runner/scenario.h"
#include "src/sim/simulator.h"

namespace bundler {
namespace runner {

enum class TraceFormat { kJsonl, kText };

// Arms tracing for every subsequently run trial (process-global; safe to
// read from concurrent trial workers). `capacity` is the per-trial ring size
// in records (40 bytes each).
void ArmTrace(uint32_t mask, size_t capacity, TraceFormat format);
void DisarmTrace();
bool TraceArmed();

// "variant|axis=value|...|seed=N": stable id for one trial, independent of
// plan position and thread interleaving.
std::string TrialSignature(const TrialPoint& point);

// Call after constructing the trial's topology (components register with the
// tracer regardless) and before running it.
void BeginTrialObs(Simulator* sim);

// Call once at the end of RunTrial. Always records deterministic scalars:
// every registry counter/gauge under "ctr.", plus "sim.events_dispatched"
// and "sim.queue_max_heap" from the simulator profile. When tracing is
// armed, additionally serializes and stores the trial's trace.
void EndTrialObs(Simulator* sim, const TrialPoint& point, TrialResult* result);

// Returns the (signature, serialized trace) pairs captured since the last
// call, sorted by signature, and clears the store.
std::vector<std::pair<std::string, std::string>> TakeCapturedTraces();

}  // namespace runner
}  // namespace bundler

#endif  // SRC_RUNNER_TRIAL_OBS_H_
