// SendboxManager: a site's sendbox. It runs N BundleControllers (one per
// admitted bundle) against a single shared SiteEgress hierarchy (site
// aggregate -> priority bands -> tenant DRR -> bundle DRR) and drives them
// all from ONE periodic control tick, so a site can host hundreds of bundles
// without hundreds of timers. Each tick hands every controller its bundle's
// backlog and enforced rate, applies the rate it returns, and re-evaluates
// the hierarchy once at the end. It is also the only sendbox: NetBuilder gives
// a tenant-less bundle (every paper figure) a single-tenant manager whose
// site aggregate is the bundle's max_rate.
//
// Admission control runs once at construction, in bundle declaration order:
// a bundle is admitted while (a) the concurrent-bundle cap has room and
// (b) the sum of admitted bundles' committed rates fits the admission
// budget. Rejected bundles degrade gracefully — their data passes through
// unshaped (status quo ante), their feedback is dropped and counted — and
// every verdict is visible via admit.s<site>.* counters and kTenant trace
// records. A bundle with its own qdisc (Policy::bundle_qdisc_factory)
// publishes that qdisc's counters as qdisc.sendbox.<BundleName>.*.
//
// Everything the manager addresses derives from its site and each bundle's
// remote site: feedback arrives at CtlAddress(local_site), routed like any
// packet into the site, whose host hands it to the manager (NetBuilder sets
// the manager as the host's control handler, Host::set_ctl), and each
// controller derives its bundle's name and control addresses from the pair.
// Demultiplexing is allocation-free: every per-bundle lookup is a flat
// remote-site -> slot table index (a bundle's destination site keys both its
// outbound data and its returning feedback, since receivebox feedback is
// sourced from CtlAddress(dst_site)).
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
  // The site's egress and tenant policies, declared once in site_egress.h:
  // the manager reads the admission caps, the tick and the tenants'
  // commitments, and hands the rest to its SiteEgress.
  using Policy = SitePolicy;
  using TenantPolicy = ::bundler::TenantPolicy;

  // One declared bundle: which tenant it belongs to, its service-class DRR
  // weight within that tenant, the site its data goes to, and its control
  // loop's config (cc choice, watchdog, ...).
  struct BundleDecl {
    size_t tenant = 0;  // index into the tenant table
    double class_weight = 1.0;
    SiteId remote_site = 0;
    BundleControlConfig control;
  };

  enum class RejectCause { kNone = 0, kBundleCap, kRateBudget };

  // The sendbox of `local_site`: bundle data leaves through `egress`, and
  // feedback arrives at CtlAddress(local_site). Its trace component and
  // admission counters are named "s<local_site>".
  SendboxManager(Simulator* sim, const Policy& policy,
                 std::vector<TenantPolicy> tenants,
                 std::vector<BundleDecl> bundles, SiteId local_site,
                 PacketHandler* egress);
  ~SendboxManager() override;
  SendboxManager(const SendboxManager&) = delete;
  SendboxManager& operator=(const SendboxManager&) = delete;

  // Site-side ingress, from the site's host: its outgoing bundle data
  // (queued into the hierarchy), the feedback it received (demuxed to the
  // owning controller), everything else forwarded.
  void HandlePacket(Packet pkt) override;

  // --- Introspection (indices are bundle DECLARATION order) ---
  size_t num_bundles() const { return decls_.size(); }
  size_t num_tenants() const { return tenants_.size(); }
  bool admitted(size_t bundle) const;
  RejectCause reject_cause(size_t bundle) const;
  // The bundle's control loop; nullptr when the bundle was rejected.
  BundleController* controller(size_t bundle);
  const BundleController* controller(size_t bundle) const;
  // Current enforced rate / backlog for an admitted bundle.
  Rate bundle_rate(size_t bundle) const;
  int64_t bundle_queue_bytes(size_t bundle) const;
  const std::string& tenant_name(size_t tenant) const {
    return tenants_[tenant].name;
  }

  uint64_t admitted_count() const { return *ctr_admitted_; }
  uint64_t rejected_count() const {
    return *ctr_rejected_cap_ + *ctr_rejected_budget_;
  }
  SiteEgress& egress_hierarchy() { return *egress_; }
  const SiteEgress& egress_hierarchy() const { return *egress_; }

 private:
  struct DeclState {
    RejectCause cause = RejectCause::kNone;
    int32_t slot = -1;  // admitted slot, -1 when rejected
  };

  int32_t SlotOfSite(SiteId site) const {
    return site < slot_of_site_.size() ? slot_of_site_[site] : -1;
  }
  void ControlTick();
  void OnBundleEgress(size_t slot, Packet pkt);

  Simulator* sim_;
  SiteId local_site_;
  PacketHandler* egress_handler_;

  std::vector<TenantPolicy> tenants_;
  std::vector<DeclState> decls_;
  std::unique_ptr<SiteEgress> egress_;
  // Admission order: a controller's slot is its bundle's egress index.
  std::vector<std::unique_ptr<BundleController>> controllers_;
  std::vector<int32_t> slot_of_site_;  // remote site -> slot, -1 = none

  EventId tick_timer_ = kInvalidEventId;

  uint32_t comp_ = 0;  // trace component ("sendbox_manager", "s<site>")
  uint64_t* ctr_admitted_ = nullptr;
  uint64_t* ctr_rejected_cap_ = nullptr;
  uint64_t* ctr_rejected_budget_ = nullptr;
  uint64_t* ctr_orphan_feedback_ = nullptr;
};

}  // namespace bundler

#endif  // SRC_BUNDLER_SENDBOX_MANAGER_H_
