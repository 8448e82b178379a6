#include "src/bundler/sendbox_manager.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace bundler {

SendboxManager::SendboxManager(Simulator* sim, const Policy& policy,
                               std::vector<TenantPolicy> tenants,
                               std::vector<BundleDecl> bundles,
                               SiteId local_site, PacketHandler* egress)
    : sim_(sim),
      local_site_(local_site),
      egress_handler_(egress),
      tenants_(std::move(tenants)) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(egress_handler_ != nullptr);
  BUNDLER_CHECK(policy.max_bundles > 0);
  BUNDLER_CHECK(!tenants_.empty());

  std::string obs_name = "s";
  obs_name += std::to_string(local_site_);
  obs::Tracer& tracer = sim_->trace();
  obs::CounterRegistry& reg = sim_->counters();
  comp_ = tracer.RegisterComponent("sendbox_manager", obs_name);
  ctr_admitted_ = reg.Counter("admit." + obs_name + ".admitted");
  ctr_rejected_cap_ = reg.Counter("admit." + obs_name + ".rejected_cap");
  ctr_rejected_budget_ = reg.Counter("admit." + obs_name + ".rejected_budget");
  ctr_orphan_feedback_ =
      reg.Counter("admit." + obs_name + ".orphan_feedback_pkts");

  const Rate budget = policy.admission_budget.IsZero()
                          ? policy.aggregate_rate
                          : policy.admission_budget;

  // --- Admission, in bundle declaration order ---
  for (const TenantPolicy& ten : tenants_) {
    BUNDLER_CHECK_MSG(!ten.name.empty(), "tenant policies must be named");
    BUNDLER_CHECK_MSG(
        ten.committed_rate.bps() <= budget.bps(),
        "tenant '%s' commits %.0f bps per bundle but the site admission "
        "budget is only %.0f bps — no bundle of this tenant could ever be "
        "admitted",
        ten.name.c_str(), ten.committed_rate.bps(), budget.bps());
  }

  double committed_bps = 0.0;
  std::vector<SiteEgress::BundleSpec> admitted_specs;
  decls_.reserve(bundles.size());
  SiteId max_site = 0;
  for (size_t i = 0; i < bundles.size(); ++i) {
    const BundleDecl& decl = bundles[i];
    BUNDLER_CHECK_MSG(decl.tenant < tenants_.size(),
                      "bundle %zu references undeclared tenant %zu", i,
                      decl.tenant);
    BUNDLER_CHECK_MSG(
        decl.control.control_interval == policy.control_interval,
        "bundle %zu: control interval differs from the site's shared tick "
        "(all bundles of a site ride one timer)",
        i);
    max_site = std::max(max_site, decl.remote_site);

    DeclState state;
    const double committed = tenants_[decl.tenant].committed_rate.bps();
    if (admitted_specs.size() >= static_cast<size_t>(policy.max_bundles)) {
      state.cause = RejectCause::kBundleCap;
      *ctr_rejected_cap_ += 1;
      tracer.Trace(obs::TraceCat::kTenant, obs::TraceEv::kTenantReject, comp_,
                   sim_->now(), i, 0, static_cast<uint64_t>(committed));
    } else if (committed_bps + committed > budget.bps() * (1.0 + 1e-9)) {
      state.cause = RejectCause::kRateBudget;
      *ctr_rejected_budget_ += 1;
      tracer.Trace(obs::TraceCat::kTenant, obs::TraceEv::kTenantReject, comp_,
                   sim_->now(), i, 1, static_cast<uint64_t>(committed));
    } else {
      committed_bps += committed;
      state.slot = static_cast<int32_t>(admitted_specs.size());
      SiteEgress::BundleSpec spec;
      spec.tenant = decl.tenant;
      spec.class_weight = decl.class_weight;
      spec.initial_rate = decl.control.initial_rate;
      admitted_specs.push_back(spec);
      *ctr_admitted_ += 1;
      tracer.Trace(obs::TraceCat::kTenant, obs::TraceEv::kTenantAdmit, comp_,
                   sim_->now(), i, static_cast<uint64_t>(committed),
                   admitted_specs.size());
    }
    decls_.push_back(state);
  }

  // --- Shared data plane, then the controllers that steer it (construction
  // time only) ---
  egress_ = std::make_unique<SiteEgress>(  // lint:allow(datapath-heap-alloc)
      sim_, policy, tenants_, std::move(admitted_specs),
      [this](size_t slot, Packet pkt) { OnBundleEgress(slot, std::move(pkt)); },
      obs_name);

  slot_of_site_.assign(static_cast<size_t>(max_site) + 1, -1);
  for (size_t i = 0; i < bundles.size(); ++i) {
    const BundleDecl& decl = bundles[i];
    const SiteId remote = decl.remote_site;
    BUNDLER_CHECK_MSG(slot_of_site_[remote] == -1,
                      "two bundles of one site share destination site %u (the "
                      "receivebox ctl address would be ambiguous)",
                      remote);
    if (decls_[i].slot < 0) {
      continue;  // rejected: no controller, data passes through unshaped
    }
    slot_of_site_[remote] = decls_[i].slot;
    // Epoch ctl is 40 bytes of control plane: straight to the uplink, never
    // shaped.
    controllers_.push_back(std::make_unique<BundleController>(  // lint:allow(datapath-heap-alloc)
        sim_, decl.control, local_site_, remote, egress_handler_));
    if (const Qdisc* q =
            egress_->bundle_qdisc(static_cast<size_t>(decls_[i].slot))) {
      const Qdisc::Counters& qc = q->counters();
      const std::string prefix =
          "qdisc.sendbox." + BundleName(local_site_, remote);
      reg.Expose(prefix + ".enq_pkts", &qc.enq_pkts);
      reg.Expose(prefix + ".deq_pkts", &qc.deq_pkts);
      reg.Expose(prefix + ".drop_pkts", &qc.drop_pkts);
    }
  }

  // One shared periodic tick drives every admitted controller, in admission
  // order; rate updates batch into a single hierarchy kick.
  tick_timer_ = sim_->SchedulePeriodic(policy.control_interval,
                                       policy.control_interval,
                                       [this]() { ControlTick(); });
}

SendboxManager::~SendboxManager() {
  if (tick_timer_ != kInvalidEventId) {
    sim_->Cancel(tick_timer_);
  }
}

void SendboxManager::ControlTick() {
  // Every bundle's rate lands back to back; one kick at the end re-evaluates
  // the hierarchy instead of N full pump scans.
  for (size_t i = 0; i < controllers_.size(); ++i) {
    const Rate rate = controllers_[i]->ControlTick(
        egress_->bundle_queue_bytes(i), egress_->bundle_rate(i));
    egress_->SetBundleRate(i, rate, /*kick=*/false);
  }
  if (!controllers_.empty()) {
    egress_->Kick();
  }
}

void SendboxManager::OnBundleEgress(size_t slot, Packet pkt) {
  controllers_[slot]->OnDataSent(pkt);
  egress_handler_->HandlePacket(std::move(pkt));
}

void SendboxManager::HandlePacket(Packet pkt) {
  if (pkt.type == PacketType::kBundlerFeedback &&
      pkt.key.dst == CtlAddress(local_site_)) {
    // Feedback is sourced from CtlAddress(remote_site): the source site IS
    // the bundle key.
    const int32_t slot = SlotOfSite(SiteOf(pkt.key.src));
    if (slot >= 0) {
      controllers_[static_cast<size_t>(slot)]->OnFeedback(pkt);
    } else {
      // A rejected bundle's receivebox still emits feedback; drop it here.
      *ctr_orphan_feedback_ += 1;
    }
    return;
  }
  if (pkt.type == PacketType::kData && SiteOf(pkt.key.src) == local_site_) {
    const int32_t slot = SlotOfSite(SiteOf(pkt.key.dst));
    if (slot >= 0) {
      egress_->Enqueue(static_cast<size_t>(slot), std::move(pkt));
      return;
    }
    // Not an admitted bundle (rejected, or plain non-bundle traffic):
    // status quo — straight to the uplink, unshaped.
  }
  egress_handler_->HandlePacket(std::move(pkt));
}

bool SendboxManager::admitted(size_t bundle) const {
  BUNDLER_CHECK(bundle < decls_.size());
  return decls_[bundle].slot >= 0;
}

SendboxManager::RejectCause SendboxManager::reject_cause(size_t bundle) const {
  BUNDLER_CHECK(bundle < decls_.size());
  return decls_[bundle].cause;
}

BundleController* SendboxManager::controller(size_t bundle) {
  BUNDLER_CHECK(bundle < decls_.size());
  const int32_t slot = decls_[bundle].slot;
  return slot < 0 ? nullptr : controllers_[static_cast<size_t>(slot)].get();
}

const BundleController* SendboxManager::controller(size_t bundle) const {
  BUNDLER_CHECK(bundle < decls_.size());
  const int32_t slot = decls_[bundle].slot;
  return slot < 0 ? nullptr : controllers_[static_cast<size_t>(slot)].get();
}

Rate SendboxManager::bundle_rate(size_t bundle) const {
  BUNDLER_CHECK(admitted(bundle));
  return egress_->bundle_rate(static_cast<size_t>(decls_[bundle].slot));
}

int64_t SendboxManager::bundle_queue_bytes(size_t bundle) const {
  BUNDLER_CHECK(admitted(bundle));
  return egress_->bundle_queue_bytes(static_cast<size_t>(decls_[bundle].slot));
}

}  // namespace bundler
