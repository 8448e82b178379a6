#include "src/net/fault_injector.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {
namespace {

// fault_drop's `a` word. A blackout is the only cause, and its code stays 2
// so that every trace reader keeps one meaning for it.
constexpr uint64_t kBlackoutCause = 2;

}  // namespace

void ValidateFaultProfile(const FaultProfileSpec& spec, const char* what) {
  BUNDLER_CHECK_MSG(!spec.blackouts.empty(),
                    "%s: fault profile has no blackout window", what);
  TimeDelta prev_end = TimeDelta::Zero();
  for (size_t i = 0; i < spec.blackouts.size(); ++i) {
    const FaultWindow& w = spec.blackouts[i];
    BUNDLER_CHECK_MSG(w.start >= TimeDelta::Zero() && w.end > w.start,
                      "%s: blackout window %zu must satisfy 0 <= start < end",
                      what, i);
    BUNDLER_CHECK_MSG(i == 0 || w.start >= prev_end,
                      "%s: blackout windows must be increasing and "
                      "non-overlapping (window %zu starts before the previous "
                      "one ends)",
                      what, i);
    prev_end = w.end;
  }
}

FaultInjector::FaultInjector(Simulator* sim, const std::string& name,
                             const FaultProfileSpec& spec, PacketHandler* next)
    : sim_(sim), spec_(spec), next_(next) {
  BUNDLER_CHECK(sim_ != nullptr && next_ != nullptr);
  comp_ = sim_->trace().RegisterComponent("fault", name);
  obs::CounterRegistry& reg = sim_->counters();
  const std::string prefix = "fault." + name + ".";
  reg.Expose(prefix + "passed", &stats_.passed);
  reg.Expose(prefix + "drops_blackout", &stats_.drops_blackout);
}

bool FaultInjector::Targeted(const Packet& pkt) const {
  switch (spec_.target) {
    case FaultTarget::kAll:
      return true;
    case FaultTarget::kCtl:
      return pkt.type == PacketType::kBundlerFeedback ||
             pkt.type == PacketType::kBundlerEpochCtl;
    case FaultTarget::kFeedbackOnly:
      return pkt.type == PacketType::kBundlerFeedback;
  }
  return false;
}

bool FaultInjector::InBlackout(TimePoint now) {
  // Windows are sorted; advance a monotonic cursor past expired ones so the
  // per-packet check is O(1) amortized.
  const TimeDelta t = now - TimePoint::Zero();
  while (blackout_idx_ < spec_.blackouts.size() &&
         t >= spec_.blackouts[blackout_idx_].end) {
    ++blackout_idx_;
  }
  return blackout_idx_ < spec_.blackouts.size() &&
         t >= spec_.blackouts[blackout_idx_].start;
}

void FaultInjector::HandlePacket(Packet pkt) {
  if (!Targeted(pkt)) {
    next_->HandlePacket(std::move(pkt));
    return;
  }
  const TimePoint now = sim_->now();
  if (InBlackout(now)) {
    ++stats_.drops_blackout;
    if (sim_->trace().enabled(obs::TraceCat::kFault)) {
      sim_->trace().Trace(obs::TraceCat::kFault, obs::TraceEv::kFaultDrop,
                          comp_, now, kBlackoutCause,
                          static_cast<uint64_t>(pkt.type), pkt.size_bytes);
    }
    return;  // packet destroyed
  }
  ++stats_.passed;
  next_->HandlePacket(std::move(pkt));
}

}  // namespace bundler
