#include "src/runner/trial_runner.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "src/sim/simulator.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {

std::string TrialSignature(const TrialPoint& point) {
  std::string sig = point.variant;
  for (const auto& [axis, value] : point.params) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    sig += "|" + axis + "=" + buf;
  }
  sig += "|seed=" + std::to_string(point.seed);
  return sig;
}

namespace {

// One trial on the calling worker: its simulator, armed before the body
// builds anything, then the dump and the trace capture.
TrialResult RunOne(const Scenario& scenario, const TrialPoint& point,
                   const RunnerOptions& options) {
  Simulator sim;
  if (options.trace_mask != 0) {
    sim.trace().Enable(options.trace_mask, options.trace_ring);
  }
  TrialResult result = scenario.run(point, &sim);
  // The body's topology is gone by now; Net froze its exposed counters.
  result.scalars["sim.events_dispatched"] =
      static_cast<double>(sim.events_dispatched());
  result.scalars["sim.queue_max_heap"] =
      static_cast<double>(sim.queue_profile().max_heap);
  sim.counters().DumpTo(&result.scalars, "ctr.");
  if (options.trace_mask != 0) {
    result.trace = "{\"type\":\"trial\",\"signature\":\"" + TrialSignature(point) +
                   "\"}\n";
    sim.trace().WriteJsonl(&result.trace);
  }
  return result;
}

}  // namespace

TrialRunner::TrialRunner(RunnerOptions options) : options_(std::move(options)) {
  if (options_.threads < 1) {
    options_.threads = 1;
  }
}

std::vector<TrialResult> TrialRunner::Run(const Scenario& scenario,
                                          const std::vector<TrialPoint>& plan,
                                          const ResultFn& on_result) {
  std::vector<TrialResult> results(plan.size());
  if (plan.empty()) {
    return results;
  }

  std::atomic<size_t> next{0};
  // Guards stderr and the in-order report below.
  std::mutex mu;  // lint:allow(raw-mutex) function-local
  size_t done = 0;
  std::vector<bool> finished(plan.size(), false);
  size_t reported = 0;  // plan prefix handed to on_result

  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan.size()) {
        return;
      }
      const TrialPoint& point = plan[i];
      try {
        results[i] = RunOne(scenario, point, options_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "trial %d (%s seed=%llu) failed: %s\n", point.trial_index,
                     point.variant.c_str(),
                     static_cast<unsigned long long>(point.seed), e.what());
        std::abort();
      }
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      if (options_.progress) {
        std::fprintf(stderr, "[%zu/%zu] %s variant=%s seed=%llu done\n", done,
                     plan.size(), scenario.spec.name.c_str(), point.variant.c_str(),
                     static_cast<unsigned long long>(point.seed));
      }
      finished[i] = true;
      for (; on_result && reported < plan.size() && finished[reported]; ++reported) {
        on_result(reported, &results[reported]);
      }
    }
  };

  int threads = options_.threads;
  if (static_cast<size_t>(threads) > plan.size()) {
    threads = static_cast<int>(plan.size());
  }
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  return results;
}

std::vector<TrialResult> TrialRunner::Run(const Scenario& scenario) {
  return Run(scenario, ExpandTrials(scenario.spec, options_.trials));
}

}  // namespace runner
}  // namespace bundler
