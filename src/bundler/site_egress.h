// Site-level egress machinery for multi-tenant bundling: one shared
// token-bucket pump driving a three-level hierarchical scheduler,
//
//   site aggregate --> strict priority bands --> DRR over tenants
//                                                  --> DRR over bundle queues
//
// with nested rate enforcement by two token buckets: the site aggregate
// bucket, and a per-bundle bucket set by that bundle's BundleController
// every control tick. This is the sendbox's one data plane: controllers
// decide rates, SiteEgress is the one place that moves packets. A
// single-bundle site (every paper figure) is the same machinery with one
// tenant and one bundle. The site's policy and its tenants' policies are
// declared here, once (SitePolicy, TenantPolicy): SiteEgress reads their
// shaping and sharing fields, and SendboxManager the admission ones.
//
// Invariants the tests pin down:
//  - Zero allocations per datapath operation once warm: FIFO bundles queue
//    in one shared PacketPool (qdisc/packet_pool.h) that grows only to the
//    site's peak backlog, the active-entity lists are index rings
//    (util/index_ring.h), and the pump wakeup reuses one pooled timer slot.
//  - Deterministic service order: bands scan low index first (strict
//    priority), tenants and bundles round-robin in activation order with
//    byte-deficit fairness (quantum proportional to weight x MTU), and a
//    blocked entity (empty bucket) rotates without consuming service. Equal
//    declarations => byte-identical schedules.
//  - Work conservation within the rate limits: a bundle without tokens
//    never blocks its siblings; the pump sleeps exactly until the earliest
//    blocked entity (or the site bucket) can next send.
#ifndef SRC_BUNDLER_SITE_EGRESS_H_
#define SRC_BUNDLER_SITE_EGRESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"
#include "src/qdisc/token_bucket.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulator.h"
#include "src/util/index_ring.h"

namespace bundler {

// A site's egress policy, declared once for the whole sendbox: SiteEgress
// reads the four shaping fields, SendboxManager (as
// SendboxManager::Policy) the admission caps and the control tick.
struct SitePolicy {
  Rate aggregate_rate = Rate::Gbps(1);  // site uplink shaping budget
  int64_t burst_bytes = 2 * kMtuBytes;  // every bucket's burst allowance
  int64_t per_bundle_queue_pkts = 512;  // drop-tail limit per FIFO bundle
  // When set, each bundle queues through its own instance from this factory
  // (operator-chosen scheduling *inside* the bundle, e.g. SFQ so short
  // requests bypass bulk — the SendboxConfig default) instead of a drop-tail
  // FIFO in the egress's shared packet pool. The FIFO stays the default: it
  // is the zero-allocation datapath the scheduler-churn bench gates. Called
  // once per bundle, at construction; a std::function because NetBuilder
  // copies the declared policy into each manager it builds.
  std::function<std::unique_ptr<Qdisc>()> bundle_qdisc_factory;  // lint:allow(datapath-std-function)

  int max_bundles = 256;  // concurrent-bundle admission cap
  // Aggregate committed-rate budget for admission; zero = aggregate_rate.
  Rate admission_budget = Rate::Zero();
  // The single shared control tick period. Every bundle's control config
  // must agree (enforced with a readable CHECK).
  TimeDelta control_interval = TimeDelta::Millis(10);
};

// A tenant's share of the site hierarchy (SendboxManager::TenantPolicy).
// SiteEgress reads the first three fields, SendboxManager the commitment.
struct TenantPolicy {
  std::string name;
  int priority = 1;     // band, 0 = highest; served strictly first
  double weight = 1.0;  // DRR share among same-band tenants
  // Admission debit charged per bundle the tenant declares.
  Rate committed_rate = Rate::Mbps(1);
};

class SiteEgress {
 public:
  // Strict-priority bands available to tenant policies. Four covers the
  // classic interactive / standard / bulk / scavenger split.
  static constexpr int kNumBands = 4;

  struct BundleSpec {
    size_t tenant = 0;          // index into the tenant table
    double class_weight = 1.0;  // DRR share among the tenant's own bundles
                                // (the service-class knob)
    Rate initial_rate = Rate::Mbps(12);  // until the controller's first tick
  };

  // `out(bundle, pkt)` receives every transmitted packet (the owner does
  // per-bundle egress accounting, then forwards to the site's uplink).
  // Registers tenant.<name>.* counters under `obs_name` scoping.
  SiteEgress(Simulator* sim, const SitePolicy& policy,
             const std::vector<TenantPolicy>& tenants,
             std::vector<BundleSpec> bundles,
             InlineFunction<void(size_t, Packet)> out,
             const std::string& obs_name);
  ~SiteEgress();
  SiteEgress(const SiteEgress&) = delete;
  SiteEgress& operator=(const SiteEgress&) = delete;

  // --- Datapath ---
  // Queues `pkt` on `bundle`'s queue (drop-tail when full) and pumps.
  void Enqueue(size_t bundle, Packet pkt);

  // --- Control plane ---
  // Sets `bundle`'s enforced rate. With `kick` false the pump is not
  // re-evaluated — callers batching many rate updates (the manager's shared
  // control tick) pass false and call Kick() once at the end.
  void SetBundleRate(size_t bundle, Rate rate, bool kick = true);
  // Re-evaluates the pump after deferred rate updates: transmits whatever
  // became eligible and re-arms the wakeup to the new earliest deadline.
  void Kick();

  // --- Introspection ---
  size_t num_bundles() const { return bundles_.size(); }
  size_t num_tenants() const { return tenants_.size(); }
  Rate bundle_rate(size_t bundle) const;
  int64_t bundle_queue_bytes(size_t bundle) const;
  int64_t bundle_queue_pkts(size_t bundle) const;
  // The bundle's own qdisc; nullptr for FIFO bundles (no
  // SitePolicy::bundle_qdisc_factory).
  const Qdisc* bundle_qdisc(size_t bundle) const;
  uint64_t tenant_tx_bytes(size_t tenant) const;
  int64_t total_backlog_pkts() const { return pool_.packets() + qdisc_backlog_pkts_; }

 private:
  struct Bundle {
    PacketPool::Queue queue;      // in pool_; used when qdisc is null
    std::unique_ptr<Qdisc> qdisc; // used when SitePolicy::bundle_qdisc_factory set
    TokenBucket bucket;
    size_t tenant = 0;
    int64_t quantum = kMtuBytes;  // class_weight x MTU
    int64_t deficit = 0;
    // Active ring linkage within the owning tenant (kIndexRingNil = idle).
    size_t prev = kIndexRingNil;
    size_t next = kIndexRingNil;
    bool active = false;
    // Cut short by the SITE bucket (a shared constraint, not this bundle's):
    // stays at the ring head and resumes with its deficit intact instead of
    // rotating — otherwise a binding site rate degrades DRR to unweighted
    // alternation (one packet per visit regardless of quantum).
    bool resuming = false;

    Bundle(Rate rate, int64_t burst, TimePoint now)
        : bucket(rate, burst, now) {}
  };

  struct Tenant {
    int band = 1;
    int64_t quantum = kMtuBytes;  // weight x MTU
    int64_t deficit = 0;
    IndexRing active_bundles;
    // Active ring linkage within the band (kIndexRingNil = idle).
    size_t prev = kIndexRingNil;
    size_t next = kIndexRingNil;
    bool active = false;
    bool resuming = false;  // same site-block resume rule as Bundle::resuming
    // Observability (registered at construction; never null).
    uint32_t comp = 0;
    uint64_t* ctr_enq = nullptr;
    uint64_t* ctr_drop = nullptr;
    uint64_t* ctr_tx_pkts = nullptr;
    uint64_t* ctr_tx_bytes = nullptr;
  };

  // Uniform queue views over FIFO and qdisc-backed bundles.
  int64_t BundleBacklogPkts(const Bundle& bun) const;
  const Packet* BundleHead(const Bundle& bun) const;
  void ActivateBundle(size_t b);
  void DeactivateBundle(size_t b);

  void Pump();
  // Serves one DRR visit to tenant `t` (band head). Returns packets sent.
  // Updates blocked-wait bookkeeping in `min_wait_`.
  int ServeTenant(size_t t, TimePoint now);

  Simulator* sim_;
  SitePolicy policy_;
  TokenBucket site_bucket_;
  std::vector<Tenant> tenants_;
  std::vector<Bundle> bundles_;
  PacketPool pool_;  // every FIFO bundle's packets
  IndexRing band_ring_[kNumBands];  // active tenants per priority band
  InlineFunction<void(size_t, Packet)> out_;

  int64_t qdisc_backlog_pkts_ = 0;  // held by qdisc-backed bundles; pool_ counts the rest

  // Pump wakeup state: at most one armed timer. Kick sets rearm_pending_,
  // and its pass cancels the armed timer before arming the new deadline.
  EventId pending_timer_ = kInvalidEventId;
  bool rearm_pending_ = false;
  bool in_pump_ = false;
  // Earliest next-available time across entities blocked in this pump pass;
  // reset at the top of each pass.
  TimeDelta min_wait_ = TimeDelta::Infinite();
  bool site_blocked_ = false;
  // A bundle broke on deficit (not tokens) this pass: the pump owes another
  // pass so sub-MTU quanta accumulate toward the head without waiting for
  // the next arrival or timer.
  bool deficit_pending_ = false;

  uint32_t comp_ = 0;  // trace component ("site_egress", obs_name)
};

}  // namespace bundler

#endif  // SRC_BUNDLER_SITE_EGRESS_H_
