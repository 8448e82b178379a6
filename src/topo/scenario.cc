#include "src/topo/scenario.h"

#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "src/util/check.h"

namespace bundler {

IdealFctFn IdealFct(Rate bottleneck_rate, TimeDelta rtt, HostCcType host_cc) {
  return [bottleneck_rate, rtt, host_cc](int64_t size_bytes) {
    using Key = std::tuple<double, int64_t, int, int64_t>;
    // Function-local guard for the process-wide memo below; nothing to
    // GUARDED_BY-annotate at namespace scope.
    static std::mutex mu;  // lint:allow(raw-mutex)
    static std::map<Key, TimeDelta>* memo = new std::map<Key, TimeDelta>();
    const Key key{bottleneck_rate.bps(), rtt.nanos(), static_cast<int>(host_cc),
                  size_bytes};
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo->find(key);
    if (it != memo->end()) {
      return it->second;
    }
    Simulator sim;
    DumbbellConfig cfg;
    cfg.bottleneck_rate = bottleneck_rate;
    cfg.rtt = rtt;
    cfg.bundler_enabled = false;
    Dumbbell net(&sim, cfg);
    FctRecorder fct;
    IssueSingleRequest(&sim, net.flows(), net.server(), net.client(), size_bytes,
                       host_cc, &fct);
    // An unloaded flow completes in well under (transfer + slow start) time;
    // cap generously.
    TimeDelta cap = bottleneck_rate.TransmitTime(size_bytes * 2) + rtt * 200.0 +
                    TimeDelta::Seconds(5);
    sim.RunUntil(TimePoint::Zero() + cap);
    BUNDLER_CHECK_MSG(fct.completed() == 1,
                      "ideal FCT flow of %lld bytes did not complete",
                      static_cast<long long>(size_bytes));
    TimeDelta ideal = fct.Fcts().Quantile(0.5) > 0
                          ? TimeDelta::SecondsF(fct.Fcts().Quantile(0.5))
                          : TimeDelta::Millis(1);
    memo->emplace(key, ideal);
    return ideal;
  };
}

ExperimentConfig PaperExperimentDefaults(bool bundler_on, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.net.bottleneck_rate = Rate::Mbps(96);
  cfg.net.rtt = TimeDelta::Millis(50);
  cfg.net.bundler_enabled = bundler_on;
  cfg.bundle_web_load = {Rate::Mbps(84)};
  cfg.duration = TimeDelta::Seconds(60);
  cfg.warmup = TimeDelta::Seconds(10);
  cfg.seed = seed;
  return cfg;
}

Experiment::Experiment(Simulator* sim, const ExperimentConfig& config)
    : config_(config), sim_(sim) {
  net_ = std::make_unique<Dumbbell>(sim_, config_.net);
  static const SizeCdf kCdf = SizeCdf::InternetCoreRouter();

  std::vector<Rate> loads = config_.bundle_web_load;
  if (loads.empty()) {
    loads.assign(static_cast<size_t>(config_.net.num_bundles), Rate::Zero());
    loads[0] = Rate::Mbps(84);
  }
  loads.resize(static_cast<size_t>(config_.net.num_bundles), Rate::Zero());

  for (int i = 0; i < config_.net.num_bundles; ++i) {
    fcts_.push_back(std::make_unique<FctRecorder>());
    if (loads[i].bps() > 0) {
      WebWorkloadConfig wc;
      wc.offered_load = loads[i];
      wc.host_cc = config_.host_cc;
      workloads_.push_back(std::make_unique<PoissonWebWorkload>(
          sim_, net_->flows(), net_->server(i), net_->client(i), &kCdf, wc,
          config_.seed + static_cast<uint64_t>(i) * 7919, fcts_.back().get()));
    }
    if (config_.bundle_bulk_flows > 0) {
      StartBulkFlows(sim_, net_->flows(), net_->server(i), net_->client(i),
                     config_.bundle_bulk_flows, config_.host_cc, TimePoint::Zero());
    }
  }

  cross_fct_ = std::make_unique<FctRecorder>();
  if (config_.cross_web_load.bps() > 0) {
    WebWorkloadConfig wc;
    wc.offered_load = config_.cross_web_load;  // endhost Cubic, the default
    cross_workload_ = std::make_unique<PoissonWebWorkload>(
        sim_, net_->flows(), net_->cross_server(), net_->cross_client(), &kCdf, wc,
        config_.seed + 104729, cross_fct_.get());
  }
  if (config_.cross_bulk_flows > 0) {
    StartBulkFlows(sim_, net_->flows(), net_->cross_server(), net_->cross_client(),
                   config_.cross_bulk_flows, HostCcType::kCubic, TimePoint::Zero());
  }
}

RequestFilter Experiment::MeasuredRequests() const {
  RequestFilter f;
  f.min_start = TimePoint::Zero() + config_.warmup;
  // Ignore requests issued in the final two seconds: they may not complete.
  f.max_start = TimePoint::Zero() + config_.duration - TimeDelta::Seconds(2);
  return f;
}

}  // namespace bundler
