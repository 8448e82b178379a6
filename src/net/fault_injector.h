// Deterministic fault injection on a link's delivery path. A FaultInjector
// is a passive PacketHandler wrapped around a link's destination chain by
// NetBuilder::AddFaultProfile: packets that finish propagation pass through
// it before reaching monitors/receiveboxes/the node entry, and the injector
// drops every targeted packet that arrives inside one of the profile's
// blackout windows — absolute [start, end) intervals of total signal outage.
//
// Targeting: a profile applies to all packets, to Bundler control messages
// (feedback + epoch ctl), or to feedback only — the selective-drop cases that
// stress the sendbox's control loop without touching data traffic.
//
// Determinism: the injector draws nothing and schedules nothing; its verdict
// depends only on a packet's type and arrival time. Packet arrival order at a
// link's delivery chain is deterministic across --threads and ShardRunner
// worker counts (the repo-wide contract), so faulted runs are byte-identical
// too, and declaring profiles never perturbs event-queue seeding.
//
// Datapath cost: 0 allocations per packet; an untargeted packet costs one
// type check.
#ifndef SRC_NET_FAULT_INJECTOR_H_
#define SRC_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace bundler {

// Which packets a fault profile applies to. Untargeted packets pass through
// untouched and uncounted.
enum class FaultTarget : uint8_t {
  kAll = 0,       // every packet on the link
  kCtl,           // Bundler control plane: feedback + epoch ctl messages
  kFeedbackOnly,  // receivebox->sendbox congestion feedback only
};

struct FaultWindow {
  TimeDelta start;  // inclusive, relative to simulation start
  TimeDelta end;    // exclusive
};

// Declarative fault profile; validated by NetBuilder::AddFaultProfile (see
// ValidateFaultProfile for the exact rules, all CHECK-enforced).
struct FaultProfileSpec {
  FaultTarget target = FaultTarget::kAll;
  // Total outage windows; strictly increasing and non-overlapping.
  std::vector<FaultWindow> blackouts;
};

// CHECK-fails (with a message naming `what`) unless the spec has at least one
// blackout window and its windows satisfy 0 <= start < end, increasing and
// non-overlapping.
void ValidateFaultProfile(const FaultProfileSpec& spec, const char* what);

class FaultInjector : public PacketHandler {
 public:
  struct Stats {
    uint64_t passed = 0;          // targeted packets delivered unmodified
    uint64_t drops_blackout = 0;  // targeted packets dropped inside a window
  };

  // `spec` must already be validated. The injector registers itself with the
  // simulator's tracer/counters (kind "fault") but schedules nothing.
  FaultInjector(Simulator* sim, const std::string& name,
                const FaultProfileSpec& spec, PacketHandler* next);

  void HandlePacket(Packet pkt) override;

  const Stats& stats() const { return stats_; }

 private:
  bool Targeted(const Packet& pkt) const;
  bool InBlackout(TimePoint now);

  Simulator* sim_;
  FaultProfileSpec spec_;
  PacketHandler* next_;

  size_t blackout_idx_ = 0;  // first window not yet fully in the past

  Stats stats_;
  uint32_t comp_ = 0;
};

}  // namespace bundler

#endif  // SRC_NET_FAULT_INJECTOR_H_
