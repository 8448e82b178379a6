// Flight-recorder tracer: fixed-size binary records in a preallocated ring.
//
// Components register themselves once at construction time (always, even when
// tracing is off, so component ids are a deterministic function of topology
// construction order and enabling tracing cannot perturb a run). Trace points
// are category-filtered by a bitmask: a disabled category costs a single
// predictable branch on the hot path, and recording into an enabled ring is a
// bounded store — no allocation, ever, after Enable().
//
// The ring holds the most recent `capacity` records; when full, the oldest
// record is evicted and `dropped()` counts the loss (flight-recorder
// semantics: the end of the run is what you usually need). Enable() leaves
// the ring's slots unwritten, so its memory becomes resident only as records
// land: a large ring that keeps few records costs what it keeps.
//
// Record schema (see README "Observability" for the payload conventions):
//   t_ns  int64   simulation time, nanoseconds
//   cat   uint8   TraceCat (category; also the filter bit index)
//   ev    uint16  TraceEv (event type within the category)
//   comp  uint32  component id from RegisterComponent
//   a,b,c uint64  event-specific payload words (rates in bps, fractions in
//                 ppm, times in ns, sizes in bytes, counts as plain ints)
//
// Threading contract: a Tracer is thread-COMPATIBLE, not thread-safe. Each
// Simulator owns exactly one, each trial/shard owns its Simulator, and the
// TrialRunner/ShardRunner ownership structure (annotated with ThreadRole
// capabilities, see src/util/thread_annotations.h) guarantees one driving
// thread at a time — which is why the hot path can be a plain unsynchronized
// store. Never share a Tracer across shards; merge at dump time instead.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/rate.h"
#include "src/util/time.h"

namespace bundler::obs {

// Payload encoders (README "Observability"): rates go on the wire as integer
// bits/sec, dimensionless fractions as parts-per-million.
inline uint64_t EncodeRate(Rate r) {
  return r.bps() <= 0.0 ? 0 : static_cast<uint64_t>(r.bps() + 0.5);
}
inline uint64_t EncodePpm(double frac) {
  return frac <= 0.0 ? 0 : static_cast<uint64_t>(frac * 1e6 + 0.5);
}

enum class TraceCat : uint8_t {
  kSim = 0,    // run lifecycle
  kLink,       // transmissions and drops
  kQdisc,      // enqueue/dequeue/drop at every queue discipline
  kTcp,        // retransmits, RTOs, recovery transitions
  kSendbox,    // shaper rate decisions, epoch updates
  kMode,       // bundler mode switches (delay-control <-> pass-through)
  kNimbus,     // elasticity detector evaluations
  kPi,         // PI controller updates/resets
  kCc,         // bundle congestion-controller updates/resets
  kShard,      // cross-shard boundary packet exchange (parallel DES)
  kFault,      // fault-injector blackout drops
  kWatchdog,   // sendbox feedback watchdog (degrade/probe/resync)
  kTenant,     // multi-tenant manager: admission verdicts, hierarchy service
  kNumCats,
};

inline constexpr uint32_t CatBit(TraceCat c) {
  return 1u << static_cast<uint8_t>(c);
}
inline constexpr uint32_t kAllCats =
    (1u << static_cast<uint8_t>(TraceCat::kNumCats)) - 1;

// Category name ("qdisc", "tcp", ...); stable, used in JSONL output and in
// the --trace=<cats> CLI syntax.
const char* TraceCatName(TraceCat cat);
// Parses a comma-separated category list ("qdisc,tcp", "all") into a bitmask.
// Returns false on an unknown name.
bool ParseTraceCats(const std::string& spec, uint32_t* mask_out);

enum class TraceEv : uint16_t {
  // kSim
  kSimRunStart = 0,  // a=until_ns (0 when running to queue drain)
  kSimRunEnd,        // a=events_this_run b=events_total
  // kLink
  kLinkTx,      // a=flow_id b=size_bytes c=queue_delay_ns
  kLinkDrop,    // a=drops_total b=backlog_bytes c=backlog_pkts
  // kQdisc
  kQdiscEnq,      // a=flow_id b=size_bytes c=backlog_bytes
  kQdiscDeq,      // a=flow_id b=size_bytes c=sojourn_ns
  kQdiscDropTail, // a=flow_id b=size_bytes of the packet dropped at enqueue
                  // (arriving or victim) c=backlog_bytes
  kQdiscDropAqm,  // a=drop_count b=backlog_bytes c=backlog_pkts
  // kTcp
  kTcpRetx,          // a=flow_id b=seq c=1 when RTO-driven
  kTcpRto,           // a=flow_id b=backoff c=rto_ns
  kTcpSpuriousRetx,  // a=flow_id b=seq
  kTcpRecoveryEnter, // a=flow_id b=recovery_point c=1 when RTO recovery
  kTcpRecoveryExit,  // a=flow_id b=cum_acked
  // kSendbox
  kSbRate,   // a=rate_bps b=mode c=queue_delay_ns
  kSbEpoch,  // a=epoch_pkts b=measured_rtt_ns
  // kMode
  kModeSwitch,  // a=new_mode b=old_mode c=time_in_old_ns
  // kNimbus
  kNimbusEval,  // a=elastic(0/1) b=metric_ppm c=mu_bps
  // kPi
  kPiUpdate,  // a=rate_bps b=queue_bytes
  kPiReset,   // a=rate_bps b=queue_bytes
  // kCc
  kCcUpdate,  // a=rate_bps b=rtt_ns c=acked_bytes
  kCcReset,   // a=seed_rate_bps (egress EWMA, or initial_rate before any)
  // kShard (simulation-determined payloads only — never sync bounds or
  // anything wall-clock/worker dependent, so sharded traces are identical
  // across ShardRunner worker counts)
  kShardSend,     // a=channel_id b=channel_seq c=deliver_ns
  kShardDeliver,  // a=channel_id b=channel_seq c=sent_ns
  // kFault
  kFaultDrop,  // a=cause(2=blackout) b=pkt_type c=size
  // kWatchdog
  kWdDegrade,  // a=staleness_ns b=qdel_ns, the queue-delay estimate
               // (entering degraded mode)
  kWdProbe,    // a=probe_seq b=next_backoff_ns (re-probe while degraded)
  kWdResync,   // a=degraded_ns b=rate_bps (feedback returned; warm re-seed)
  // kTenant
  kTenantAdmit,   // a=bundle_index b=committed_bps c=admitted_count
  kTenantReject,  // a=bundle_index b=cause(0=bundle cap 1=rate budget)
                  // c=committed_bps
  kTenantSched,   // a=tenant_index b=size_bytes c=priority_band (per dequeue)
};

const char* TraceEvName(TraceEv ev);

// 40 bytes, trivially copyable: the ring is a flat array of these.
struct TraceRecord {
  int64_t t_ns;
  uint64_t a;
  uint64_t b;
  uint64_t c;
  uint32_t comp;
  uint16_t ev;
  uint8_t cat;
  uint8_t pad;
};
static_assert(sizeof(TraceRecord) == 40, "trace record layout drifted");

class Tracer {
 public:
  struct Component {
    std::string kind;
    std::string name;
  };

  // Registers a component and returns its id. Called unconditionally from
  // component constructors; ids follow construction order, which is
  // deterministic per (scenario, seed, trial).
  uint32_t RegisterComponent(const char* kind, const std::string& name) {
    components_.push_back(Component{kind, name});
    return static_cast<uint32_t>(components_.size() - 1);
  }

  // Shared-component variant for entities that churn mid-run (TCP flows):
  // returns the existing id when (kind, name) is already registered, so the
  // registry stays bounded and re-lookup never allocates. Searches newest
  // first: churning entities register after the topology's components, so
  // each flow creation finds its entry at once instead of scanning every
  // component of every bundle.
  uint32_t FindOrRegisterComponent(const char* kind, const std::string& name) {
    for (size_t i = components_.size(); i-- > 0;) {
      if (components_[i].kind == kind && components_[i].name == name) {
        return static_cast<uint32_t>(i);
      }
    }
    return RegisterComponent(kind, name);
  }

  // Arms the tracer: allocates a ring of `capacity` records and enables
  // the categories in `mask`. May be called before components exist; the
  // component registry is independent of arming.
  void Enable(uint32_t mask, size_t capacity);
  void Disable() { mask_ = 0; }

  bool enabled(TraceCat cat) const { return (mask_ & CatBit(cat)) != 0; }
  uint32_t mask() const { return mask_; }

  // Hot path. The mask test is the only cost when the category is disabled;
  // when enabled the record is written in place (oldest evicted when full).
  void Trace(TraceCat cat, TraceEv ev, uint32_t comp, TimePoint t,
             uint64_t a = 0, uint64_t b = 0, uint64_t c = 0) {
    if ((mask_ & CatBit(cat)) == 0) {
      return;
    }
    TraceRecord& r = NextSlot();
    r.t_ns = t.nanos();
    r.a = a;
    r.b = b;
    r.c = c;
    r.comp = comp;
    r.ev = static_cast<uint16_t>(ev);
    r.cat = static_cast<uint8_t>(cat);
    r.pad = 0;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }
  const std::vector<Component>& components() const { return components_; }

  // Oldest-first copy of the live records (test/serialization helper).
  [[nodiscard]] std::vector<TraceRecord> Snapshot() const;

  // Serializes components + records as JSONL ({"type":"component",...} lines
  // followed by {"type":"record",...} lines, oldest first), appending to
  // `out`. The closing {"type":"trace_end",...} line carries ring accounting.
  void WriteJsonl(std::string* out) const;

 private:
  TraceRecord& NextSlot() {
    if (size_ < capacity_) {
      return ring_[(head_ + size_++) % capacity_];
    }
    // Full: evict the oldest (flight-recorder semantics).
    TraceRecord& r = ring_[head_];
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++dropped_;
    return r;
  }

  uint32_t mask_ = 0;
  std::unique_ptr<TraceRecord[]> ring_;  // slots are written before read
  size_t capacity_ = 0;
  size_t head_ = 0;  // index of the oldest live record
  size_t size_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Component> components_;
};

}  // namespace bundler::obs

#endif  // SRC_OBS_TRACE_H_
