// Deterministic fault injection on a link's delivery path. A FaultInjector
// is a passive PacketHandler wrapped around a link's destination chain by
// NetBuilder::AddFaultProfile: packets that finish propagation pass through
// it before reaching monitors/receiveboxes/the node entry, and the injector
// may drop, or briefly hold (reorder) them according to a seeded profile.
//
// Mechanisms (composable within one profile, validated at declaration time):
//  - Bernoulli loss: each targeted packet dropped i.i.d. with `loss_prob`.
//  - Gilbert-Elliott burst loss: two-state Markov chain (good/bad) with
//    per-state loss probabilities; models correlated loss episodes.
//  - Blackout windows: absolute [start, end) intervals during which every
//    targeted packet is dropped — a total signal outage.
//  - Bounded reordering: with `reorder_prob` a packet is held in a
//    preallocated slot and re-delivered after at most `reorder_depth` later
//    packets have passed it (or a flush timeout, whichever comes first), so
//    displacement is strictly bounded.
//
// Targeting: a profile applies to all packets, to Bundler control messages
// (feedback + epoch ctl), or to feedback only — the selective-drop cases that
// stress the sendbox's control loop without touching data traffic.
//
// Determinism: the injector owns a private Rng seeded from the profile, and
// consumes draws only for *targeted* packets, in arrival order. Packet
// arrival order at a link's delivery chain is deterministic across --threads
// and ShardRunner worker counts (the repo-wide contract), so faulted runs are
// byte-identical too. Construction is passive — no events are scheduled until
// a packet is actually held — so declaring profiles never perturbs event-queue
// seeding.
//
// Datapath cost: 0 allocations per packet. Packet is flat (no heap members),
// so the hold slot is inline storage; RNG draws, trace records, and the
// lazily scheduled flush timer all use preallocated machinery.
#ifndef SRC_NET_FAULT_INJECTOR_H_
#define SRC_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/random.h"
#include "src/util/time.h"

namespace bundler {

// Which packets a fault profile applies to. Untargeted packets pass through
// without consuming RNG draws (so adding data traffic cannot perturb the
// fault sequence seen by control messages, and vice versa).
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

  // Bernoulli i.i.d. loss in [0, 1]. Mutually exclusive with Gilbert-Elliott.
  double loss_prob = 0.0;

  // Gilbert-Elliott burst loss: enabled when ge_p_good_to_bad > 0. Each
  // targeted packet is lost with the current state's loss probability, then
  // the chain draws one transition. Both transition probabilities must be in
  // (0, 1] when enabled (a chain that can never leave a state is a blackout,
  // which has its own mechanism).
  double ge_p_good_to_bad = 0.0;
  double ge_p_bad_to_good = 0.0;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;

  // Total outage windows; strictly increasing and non-overlapping.
  std::vector<FaultWindow> blackouts;

  // Bounded reordering: with probability `reorder_prob` a surviving packet is
  // held and re-delivered after `reorder_depth` (1..16) later packets pass,
  // or after `reorder_flush` if traffic dries up. At most one packet is held
  // at a time; hold draws are only made while the slot is free.
  double reorder_prob = 0.0;
  int reorder_depth = 0;
  TimeDelta reorder_flush = TimeDelta::Millis(50);

  // Seed for the injector's private Rng. Scenarios derive it from the trial
  // seed so every trial sees an independent but reproducible fault sequence.
  uint64_t seed = 1;
};

// CHECK-fails (with a message naming `what`) unless the spec is well-formed:
// probabilities in range, at most one loss mechanism, valid GE transition
// probabilities, ordered non-overlapping blackout windows, bounded reorder
// depth, and at least one mechanism enabled.
void ValidateFaultProfile(const FaultProfileSpec& spec, const char* what);

class FaultInjector : public PacketHandler {
 public:
  struct Stats {
    uint64_t passed = 0;          // delivered unmodified
    uint64_t drops_random = 0;    // Bernoulli losses
    uint64_t drops_burst = 0;     // Gilbert-Elliott losses
    uint64_t drops_blackout = 0;  // blackout-window losses
    uint64_t held = 0;            // packets captured for reordering
    uint64_t released_depth = 0;  // releases triggered by displacement bound
    uint64_t released_flush = 0;  // releases triggered by the flush timer
  };

  // `spec` must already be validated. The injector registers itself with the
  // simulator's tracer/counters (kind "fault") but schedules nothing.
  FaultInjector(Simulator* sim, std::string name, const FaultProfileSpec& spec,
                PacketHandler* next);

  void HandlePacket(Packet pkt) override;

  const Stats& stats() const { return stats_; }
  bool holding() const { return held_.has_value(); }
  const std::string& name() const { return name_; }

 private:
  bool Targeted(const Packet& pkt) const;
  bool InBlackout(TimePoint now);
  // Draws the loss verdict for a targeted packet (consumes RNG).
  bool DrawLoss(uint64_t* cause);
  void ReleaseHeld(bool flush);
  void TraceDrop(const Packet& pkt, uint64_t cause, TimePoint now);

  Simulator* sim_;
  std::string name_;
  FaultProfileSpec spec_;
  PacketHandler* next_;
  Rng rng_;

  bool ge_bad_ = false;         // Gilbert-Elliott chain state
  size_t blackout_idx_ = 0;     // first window not yet fully in the past
  std::optional<Packet> held_;  // reorder hold slot (inline storage)
  int passed_since_hold_ = 0;
  EventId flush_timer_ = kInvalidEventId;
  bool flush_armed_ = false;

  Stats stats_;
  uint32_t comp_ = 0;
};

}  // namespace bundler

#endif  // SRC_NET_FAULT_INJECTOR_H_
