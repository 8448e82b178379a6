#include "src/runner/trial_obs.h"

#include <cstdio>
#include <map>
#include <mutex>

#include "src/util/thread_annotations.h"

namespace bundler {
namespace runner {
namespace {

struct ArmedState {
  bool armed = false;
  uint32_t mask = 0;
  size_t capacity = 0;
  TraceFormat format = TraceFormat::kJsonl;
};

// Worker threads finish trials (and capture traces) concurrently; the armed
// config and the capture map are the only cross-trial shared state.
std::mutex g_mu;
ArmedState g_armed GUARDED_BY(g_mu);
std::map<std::string, std::string> g_captured GUARDED_BY(g_mu);

std::string FormatParam(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

void ArmTrace(uint32_t mask, size_t capacity, TraceFormat format) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed.armed = true;
  g_armed.mask = mask;
  g_armed.capacity = capacity;
  g_armed.format = format;
}

void DisarmTrace() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed = ArmedState();
}

bool TraceArmed() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_armed.armed;
}

std::string TrialSignature(const TrialPoint& point) {
  std::string sig = point.variant;
  for (const auto& [axis, value] : point.params) {
    sig += "|" + axis + "=" + FormatParam(value);
  }
  sig += "|seed=" + std::to_string(point.seed);
  return sig;
}

void BeginTrialObs(Simulator* sim) {
  ArmedState armed;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    armed = g_armed;
  }
  if (armed.armed) {
    sim->trace().Enable(armed.mask, armed.capacity);
  }
}

void EndTrialObs(Simulator* sim, const TrialPoint& point, TrialResult* result) {
  result->scalars["sim.events_dispatched"] =
      static_cast<double>(sim->events_dispatched());
  result->scalars["sim.queue_max_heap"] =
      static_cast<double>(sim->queue_profile().max_heap);
  sim->counters().DumpTo(&result->scalars, "ctr.");

  ArmedState armed;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    armed = g_armed;
  }
  if (!armed.armed) {
    return;
  }
  const std::string sig = TrialSignature(point);
  std::string out;
  if (armed.format == TraceFormat::kJsonl) {
    out += "{\"type\":\"trial\",\"signature\":\"" + sig + "\"}\n";
    sim->trace().WriteJsonl(&out);
  } else {
    out += "# trial " + sig + "\n";
    sim->trace().WriteText(&out);
  }
  std::lock_guard<std::mutex> lock(g_mu);
  g_captured[sig] = std::move(out);
}

std::vector<std::pair<std::string, std::string>> TakeCapturedTraces() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<std::pair<std::string, std::string>> out(g_captured.begin(),
                                                       g_captured.end());
  g_captured.clear();
  return out;
}

}  // namespace runner
}  // namespace bundler
