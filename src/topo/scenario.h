// Experiment glue shared by runner scenarios, examples, and integration
// tests: one run's dumbbell, workloads and FCT recording, built into a
// caller's simulator, and the unloaded-network ideal FCT that slowdown
// metrics divide by.
#ifndef SRC_TOPO_SCENARIO_H_
#define SRC_TOPO_SCENARIO_H_

#include <memory>
#include <vector>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/topo/dumbbell.h"

namespace bundler {

// Ideal (unloaded network) FCT per request size on a dumbbell of
// `bottleneck_rate` and `rtt`, measured by simulating a single `host_cc`
// flow on an idle copy of the network with the Bundler disabled. One
// process-wide memo keyed by (rate, rtt, host CC, size) holds every value,
// so each is simulated once per process however many trials, threads or
// functions ask; lookups serialize on one mutex, and since values are
// deterministic, sharing them cannot change results.
IdealFctFn IdealFct(Rate bottleneck_rate, TimeDelta rtt, HostCcType host_cc);

struct ExperimentConfig {
  DumbbellConfig net;
  TimeDelta duration = TimeDelta::Seconds(30);
  TimeDelta warmup = TimeDelta::Seconds(5);  // requests starting earlier are excluded
  uint64_t seed = 1;

  HostCcType host_cc = HostCcType::kCubic;

  // Per-bundle web offered load; resized/truncated to num_bundles. An empty
  // vector means 84 Mbit/s on bundle 0 and zero elsewhere.
  std::vector<Rate> bundle_web_load;
  int bundle_bulk_flows = 0;  // backlogged flows inside every bundle

  // Unbundled cross traffic, all endhost Cubic.
  Rate cross_web_load = Rate::Zero();  // web-mix
  int cross_bulk_flows = 0;            // backlogged (buffer-filling)
};

// The paper's default emulation (§7.1), scaled in duration only: 96 Mbit/s
// bottleneck, 50 ms RTT, 84 Mbit/s offered web load, endhost Cubic, sendbox
// Copa + Nimbus detection, SFQ scheduling. Callers override fields as their
// figure or scenario requires.
ExperimentConfig PaperExperimentDefaults(bool bundler_on, uint64_t seed = 1);

// One run built into `sim`, which must outlive it: the dumbbell, its
// workloads and their FCT recorders.
class Experiment {
 public:
  Experiment(Simulator* sim, const ExperimentConfig& config);

  void Run() { RunUntil(config_.duration); }
  void RunUntil(TimeDelta t) { sim_->RunUntil(TimePoint::Zero() + t); }

  Simulator* sim() { return sim_; }
  Dumbbell* net() { return net_.get(); }
  FctRecorder* fct(int bundle = 0) { return fcts_[bundle].get(); }
  const ExperimentConfig& config() const { return config_; }

  // Filter matching the measurement interval (post-warmup requests).
  RequestFilter MeasuredRequests() const;

 private:
  ExperimentConfig config_;
  Simulator* sim_;
  std::unique_ptr<Dumbbell> net_;
  std::vector<std::unique_ptr<FctRecorder>> fcts_;
  std::unique_ptr<FctRecorder> cross_fct_;
  std::vector<std::unique_ptr<PoissonWebWorkload>> workloads_;
  std::unique_ptr<PoissonWebWorkload> cross_workload_;
};

}  // namespace bundler

#endif  // SRC_TOPO_SCENARIO_H_
