// SendboxManager: a site's sendbox. It runs N BundleControllers (one per
// admitted bundle) against a single shared SiteEgress hierarchy (site
// aggregate -> priority bands -> tenant DRR -> bundle DRR) and drives them
// all from ONE periodic control tick, so a site can host hundreds of bundles
// without hundreds of timers. It is also the only sendbox: NetBuilder gives
// a tenant-less bundle (every paper figure) a single-tenant manager whose
// site aggregate is the bundle's max_rate.
//
// Admission control runs once at construction, in bundle declaration order:
// a bundle is admitted while (a) the concurrent-bundle cap has room and
// (b) the sum of admitted bundles' committed rates fits the admission
// budget. Rejected bundles degrade gracefully — their data passes through
// unshaped (status quo ante), their feedback is dropped and counted — and
// every verdict is visible via admit.<site>.* counters and kTenant trace
// records. A bundle with its own qdisc (Policy::bundle_qdisc_factory)
// publishes that qdisc's counters as qdisc.sendbox.<local>-<remote>.*.
//
// Demultiplexing is allocation-free: every per-bundle lookup is a flat
// remote-site -> slot table index (a bundle's destination site keys both its
// outbound data and its returning feedback, since receivebox feedback is
// sourced from (dst_site, kBundlerCtlHost)).
#ifndef SRC_BUNDLER_SENDBOX_MANAGER_H_
#define SRC_BUNDLER_SENDBOX_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/bundler/bundle_controller.h"
#include "src/bundler/site_egress.h"
#include "src/net/node.h"
#include "src/sim/simulator.h"

namespace bundler {

class SendboxManager : public PacketHandler {
 public:
  // Site-level egress policy: the shared machinery every tenant rides.
  struct Policy {
    Rate aggregate_rate = Rate::Gbps(1);  // site uplink shaping budget
    int max_bundles = 256;                // concurrent-bundle admission cap
    // Aggregate committed-rate budget for admission; zero = aggregate_rate.
    Rate admission_budget = Rate::Zero();
    int64_t per_bundle_queue_pkts = 512;
    int64_t burst_bytes = 2 * kMtuBytes;
    // Optional per-bundle qdisc (forwarded to SiteEgress::Config): when set,
    // each bundle schedules internally through its own instance (e.g. SFQ,
    // the SendboxConfig default) instead of the shared-pool FIFO.
    std::function<std::unique_ptr<Qdisc>()> bundle_qdisc_factory;
    // The single shared control tick period. Every bundle's control config
    // must agree (enforced with a readable CHECK).
    TimeDelta control_interval = TimeDelta::Millis(10);
  };

  // Per-tenant sharing policy within the site hierarchy.
  struct TenantPolicy {
    std::string name;
    int priority = 1;              // strict band, 0 = highest
    double weight = 1.0;           // DRR share among same-band tenants
    Rate rate_cap = Rate::Zero();  // tenant aggregate cap (zero = uncapped)
    // Admission debit charged per bundle the tenant declares.
    Rate committed_rate = Rate::Mbps(1);
  };

  // One declared bundle: which tenant it belongs to, its service-class DRR
  // weight within that tenant, and the full per-bundle control-loop config
  // (local/remote sites, ctl addresses, cc choice, watchdog, ...).
  struct BundleDecl {
    size_t tenant = 0;  // index into the tenant table
    double class_weight = 1.0;
    BundleControlConfig control;
  };

  enum class RejectCause { kNone = 0, kBundleCap, kRateBudget };

  // `ctl_addr` is the site's shared control address (local_site, ctl host);
  // every bundle's control config must carry the same one.
  SendboxManager(Simulator* sim, const Policy& policy,
                 std::vector<TenantPolicy> tenants,
                 std::vector<BundleDecl> bundles, SiteId local_site,
                 Address ctl_addr, PacketHandler* egress,
                 const std::string& obs_name);
  ~SendboxManager() override;
  SendboxManager(const SendboxManager&) = delete;
  SendboxManager& operator=(const SendboxManager&) = delete;

  // Site-side ingress: bundle data (queued into the hierarchy), returning
  // feedback (demuxed to the owning controller), everything else forwarded.
  void HandlePacket(Packet pkt) override;

  // --- Introspection (indices are bundle DECLARATION order) ---
  size_t num_bundles() const { return decls_.size(); }
  size_t num_tenants() const { return tenant_names_.size(); }
  bool admitted(size_t bundle) const;
  RejectCause reject_cause(size_t bundle) const;
  // The bundle's control loop; nullptr when the bundle was rejected.
  BundleController* controller(size_t bundle);
  const BundleController* controller(size_t bundle) const;
  // Current enforced rate / backlog for an admitted bundle.
  Rate bundle_rate(size_t bundle) const;
  int64_t bundle_queue_bytes(size_t bundle) const;
  size_t tenant_of(size_t bundle) const;
  const std::string& tenant_name(size_t tenant) const {
    return tenant_names_[tenant];
  }

  uint64_t admitted_count() const { return *ctr_admitted_; }
  uint64_t rejected_count() const {
    return *ctr_rejected_cap_ + *ctr_rejected_budget_;
  }
  SiteEgress& egress_hierarchy() { return *egress_; }
  const SiteEgress& egress_hierarchy() const { return *egress_; }

 private:
  // BundleDataplane seam for one admitted bundle: rate changes land on the
  // shared hierarchy's per-bundle bucket (deferred kick during the shared
  // tick), backlog reads come from its queue, epoch ctl bypasses the
  // hierarchy (control packets are never shaped).
  struct Slot : BundleDataplane {
    SendboxManager* mgr = nullptr;
    size_t idx = 0;  // egress hierarchy index == admission order
    std::unique_ptr<BundleController> ctl;

    int64_t QueueBytes() const override;
    Rate ShapedRate() const override;
    void SetShapedRate(Rate rate) override;
    void SendControl(Packet pkt) override;
  };

  struct DeclState {
    RejectCause cause = RejectCause::kNone;
    int32_t slot = -1;  // admitted slot, -1 when rejected
    size_t tenant = 0;
  };

  int32_t SlotOfSite(SiteId site) const {
    return site < slot_of_site_.size() ? slot_of_site_[site] : -1;
  }
  void ControlTick();
  void OnBundleEgress(size_t slot, Packet pkt);

  Simulator* sim_;
  Policy policy_;
  SiteId local_site_;
  Address ctl_addr_;  // (local_site, kBundlerCtlHost), shared by all bundles
  PacketHandler* egress_handler_;

  std::vector<std::string> tenant_names_;
  std::vector<DeclState> decls_;
  std::unique_ptr<SiteEgress> egress_;
  std::vector<std::unique_ptr<Slot>> slots_;  // admission order
  std::vector<int32_t> slot_of_site_;         // remote site -> slot, -1 = none

  EventId tick_timer_ = kInvalidEventId;
  bool in_tick_ = false;       // batching window for rate-update kicks
  bool egress_dirty_ = false;  // a rate changed during the current tick

  uint32_t comp_ = 0;  // trace component ("sendbox_manager", obs_name)
  uint64_t* ctr_admitted_ = nullptr;
  uint64_t* ctr_rejected_cap_ = nullptr;
  uint64_t* ctr_rejected_budget_ = nullptr;
  uint64_t* ctr_orphan_feedback_ = nullptr;
};

}  // namespace bundler

#endif  // SRC_BUNDLER_SENDBOX_MANAGER_H_
