#include "src/bundler/site_egress.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/util/check.h"

namespace bundler {

SiteEgress::SiteEgress(Simulator* sim, const SitePolicy& policy,
                       const std::vector<TenantPolicy>& tenants,
                       std::vector<BundleSpec> bundles,
                       InlineFunction<void(size_t, Packet)> out,
                       const std::string& obs_name)
    : sim_(sim),
      policy_(policy),
      site_bucket_(policy.aggregate_rate, policy.burst_bytes, sim->now()),
      out_(std::move(out)) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(static_cast<bool>(out_));
  BUNDLER_CHECK(policy_.per_bundle_queue_pkts > 0);
  BUNDLER_CHECK(policy_.burst_bytes >= kMtuBytes);

  obs::Tracer& tracer = sim_->trace();
  obs::CounterRegistry& reg = sim_->counters();
  comp_ = tracer.RegisterComponent("site_egress", obs_name);

  const TimePoint now = sim_->now();
  tenants_.reserve(tenants.size());
  for (const TenantPolicy& spec : tenants) {
    BUNDLER_CHECK_MSG(spec.priority >= 0 && spec.priority < kNumBands,
                      "tenant '%s': priority %d outside [0, %d)",
                      spec.name.c_str(), spec.priority, kNumBands);
    BUNDLER_CHECK_MSG(spec.weight > 0.0, "tenant '%s': weight must be positive",
                      spec.name.c_str());
    Tenant ten;
    ten.band = spec.priority;
    ten.quantum = std::max<int64_t>(
        1, static_cast<int64_t>(spec.weight * kMtuBytes));
    ten.comp = tracer.RegisterComponent("tenant", spec.name);
    ten.ctr_enq = reg.Counter("tenant." + spec.name + ".enq_pkts");
    ten.ctr_drop = reg.Counter("tenant." + spec.name + ".drop_pkts");
    ten.ctr_tx_pkts = reg.Counter("tenant." + spec.name + ".tx_pkts");
    ten.ctr_tx_bytes = reg.Counter("tenant." + spec.name + ".tx_bytes");
    tenants_.push_back(std::move(ten));
  }

  bundles_.reserve(bundles.size());
  for (const BundleSpec& spec : bundles) {
    BUNDLER_CHECK_MSG(spec.tenant < tenants_.size(),
                      "bundle references tenant %zu of %zu", spec.tenant,
                      tenants_.size());
    BUNDLER_CHECK_MSG(spec.class_weight > 0.0,
                      "bundle class_weight must be positive");
    Bundle bun(spec.initial_rate, policy_.burst_bytes, now);
    bun.tenant = spec.tenant;
    bun.quantum = std::max<int64_t>(
        1, static_cast<int64_t>(spec.class_weight * kMtuBytes));
    if (policy_.bundle_qdisc_factory) {
      bun.qdisc = policy_.bundle_qdisc_factory();
      BUNDLER_CHECK(bun.qdisc != nullptr);
      bun.qdisc->BindObs(
          &tracer, tracer.RegisterComponent(
                       "qdisc", obs_name + ".b" +
                                    std::to_string(bundles_.size())));
    }
    bundles_.push_back(std::move(bun));
  }
}

SiteEgress::~SiteEgress() {
  if (pending_timer_ != kInvalidEventId) {
    sim_->Cancel(pending_timer_);
  }
}

int64_t SiteEgress::BundleBacklogPkts(const Bundle& bun) const {
  return bun.qdisc != nullptr ? bun.qdisc->packets()
                              : static_cast<int64_t>(bun.queue.size());
}

const Packet* SiteEgress::BundleHead(const Bundle& bun) const {
  return bun.qdisc != nullptr ? bun.qdisc->Peek() : &pool_.Front(bun.queue);
}

void SiteEgress::ActivateBundle(size_t b) {
  Bundle& bun = bundles_[b];
  if (bun.active) {
    return;
  }
  Tenant& ten = tenants_[bun.tenant];
  IndexRingPushBack(bundles_, ten.active_bundles, b);
  bun.active = true;
  if (!ten.active) {
    IndexRingPushBack(tenants_, band_ring_[ten.band], bun.tenant);
    ten.active = true;
  }
}

void SiteEgress::DeactivateBundle(size_t b) {
  Bundle& bun = bundles_[b];
  Tenant& ten = tenants_[bun.tenant];
  IndexRingRemove(bundles_, ten.active_bundles, b);
  bun.active = false;
  bun.deficit = 0;
  bun.resuming = false;
  if (ten.active_bundles.empty()) {
    IndexRingRemove(tenants_, band_ring_[ten.band], bun.tenant);
    ten.active = false;
    ten.deficit = 0;
    ten.resuming = false;
  }
}

void SiteEgress::Enqueue(size_t bundle, Packet pkt) {
  BUNDLER_CHECK(bundle < bundles_.size());
  Bundle& bun = bundles_[bundle];
  Tenant& ten = tenants_[bun.tenant];
  if (bun.qdisc != nullptr) {
    pkt.queue_enter = sim_->now();
    const int64_t before_pkts = bun.qdisc->packets();
    const uint64_t before_drops = bun.qdisc->drops();
    // Accepted may still victim-drop another packet (e.g. SFQ longest-queue
    // drop); reconcile backlog and drop counters from the qdisc's deltas.
    const bool accepted = bun.qdisc->Enqueue(std::move(pkt), sim_->now());
    qdisc_backlog_pkts_ += bun.qdisc->packets() - before_pkts;
    const uint64_t dropped = bun.qdisc->drops() - before_drops;
    *ten.ctr_drop += dropped;
    if (accepted) {
      *ten.ctr_enq += 1;
    }
    if (bun.qdisc->packets() > 0) {
      ActivateBundle(bundle);
    }
    // Arrival onto an already-backlogged bundle with the head untouched (no
    // victim drop) changes no head and no token state, so the wakeup plan
    // computed by the last pump pass is still exactly right — skip the
    // otherwise-futile full pass (the dominant steady-state arrival path).
    if (before_pkts > 0 && dropped == 0) {
      return;
    }
    Pump();
    return;
  }
  if (static_cast<int64_t>(bun.queue.size()) == policy_.per_bundle_queue_pkts) {
    *ten.ctr_drop += 1;
    return;  // drop-tail; move-only Packet dies here
  }
  pkt.queue_enter = sim_->now();
  const bool was_backlogged = !bun.queue.empty();
  pool_.PushBack(bun.queue, std::move(pkt));
  *ten.ctr_enq += 1;
  ActivateBundle(bundle);
  if (was_backlogged) {
    return;  // head unchanged: the armed wakeup / pending kick covers it
  }
  Pump();
}

void SiteEgress::SetBundleRate(size_t bundle, Rate rate, bool kick) {
  BUNDLER_CHECK(bundle < bundles_.size());
  bundles_[bundle].bucket.SetRate(rate, sim_->now());
  if (kick) {
    Kick();
  }
}

void SiteEgress::Kick() {
  // A rate increase may make a blocked head transmittable earlier than the
  // armed wakeup; re-evaluate, and let the pass replace the wakeup.
  rearm_pending_ = pending_timer_ != kInvalidEventId;
  Pump();
}

Rate SiteEgress::bundle_rate(size_t bundle) const {
  BUNDLER_CHECK(bundle < bundles_.size());
  return bundles_[bundle].bucket.rate();
}

int64_t SiteEgress::bundle_queue_bytes(size_t bundle) const {
  BUNDLER_CHECK(bundle < bundles_.size());
  const Bundle& bun = bundles_[bundle];
  return bun.qdisc != nullptr ? bun.qdisc->bytes() : bun.queue.bytes;
}

int64_t SiteEgress::bundle_queue_pkts(size_t bundle) const {
  BUNDLER_CHECK(bundle < bundles_.size());
  return BundleBacklogPkts(bundles_[bundle]);
}

const Qdisc* SiteEgress::bundle_qdisc(size_t bundle) const {
  BUNDLER_CHECK(bundle < bundles_.size());
  return bundles_[bundle].qdisc.get();
}

uint64_t SiteEgress::tenant_tx_bytes(size_t tenant) const {
  BUNDLER_CHECK(tenant < tenants_.size());
  return *tenants_[tenant].ctr_tx_bytes;
}

int SiteEgress::ServeTenant(size_t t, TimePoint now) {
  Tenant& ten = tenants_[t];
  IndexRing& band = band_ring_[ten.band];
  // A resuming tenant (cut short by the site bucket last pass) continues on
  // its remaining deficit; a fresh visit earns a new quantum.
  if (ten.resuming) {
    ten.resuming = false;
  } else {
    ten.deficit += ten.quantum;
  }
  int sent_total = 0;
  // Visit each of the tenant's active bundles at most once (inner DRR).
  const size_t visits = ten.active_bundles.count;
  for (size_t v = 0; v < visits && !site_blocked_ && ten.deficit > 0; ++v) {
    const size_t b = ten.active_bundles.head;
    Bundle& bun = bundles_[b];
    if (bun.resuming) {
      bun.resuming = false;
    } else {
      bun.deficit += bun.quantum;
    }
    int sent_here = 0;
    bool deficit_short = false;
    while (BundleBacklogPkts(bun) > 0) {
      const Packet* head = BundleHead(bun);
      const int64_t bytes = head->size_bytes;
      if (bun.deficit < bytes) {
        // Quantum spent (or sub-MTU quantum still accumulating toward the
        // head). Another pump pass re-credits; tell the pump a pass is owed
        // so a sub-MTU-weight bundle converges without waiting on arrivals.
        deficit_short = true;
        deficit_pending_ = true;
        break;
      }
      if (!site_bucket_.CanSend(bytes, now)) {
        const TimeDelta wait = site_bucket_.TimeUntilAvailable(bytes, now);
        if (wait < min_wait_) {
          min_wait_ = wait;
        }
        site_blocked_ = true;  // nothing anywhere can send; stop the pump
        break;
      }
      if (!bun.bucket.CanSend(bytes, now)) {
        const TimeDelta wait = bun.bucket.TimeUntilAvailable(bytes, now);
        // Infinite when the controller set a zero rate; the next SetBundleRate
        // kick restarts service, so no wakeup is owed for this bundle.
        if (!wait.IsInfinite() && wait < min_wait_) {
          min_wait_ = wait;
        }
        break;  // out of tokens; siblings in this tenant proceed
      }
      std::optional<Packet> popped;
      if (bun.qdisc != nullptr) {
        const int64_t before_pkts = bun.qdisc->packets();
        const uint64_t before_drops = bun.qdisc->drops();
        popped = bun.qdisc->Dequeue(now);
        qdisc_backlog_pkts_ -= before_pkts - bun.qdisc->packets();
        *ten.ctr_drop += bun.qdisc->drops() - before_drops;
        if (!popped.has_value()) {
          if (bun.qdisc->packets() == before_pkts) {
            break;  // qdisc made no progress; avoid spinning
          }
          continue;  // AQM dequeue-drop consumed the head; re-peek
        }
      } else {
        popped = pool_.PopFront(bun.queue);
      }
      Packet pkt = std::move(*popped);
      const int64_t sent_bytes = pkt.size_bytes;
      site_bucket_.Consume(sent_bytes, now);
      bun.bucket.Consume(sent_bytes, now);
      bun.deficit -= sent_bytes;
      ten.deficit -= sent_bytes;
      ++sent_here;
      ++sent_total;
      *ten.ctr_tx_pkts += 1;
      *ten.ctr_tx_bytes += static_cast<uint64_t>(sent_bytes);
      sim_->trace().Trace(obs::TraceCat::kTenant, obs::TraceEv::kTenantSched,
                          comp_, now, t, static_cast<uint64_t>(sent_bytes),
                          static_cast<uint64_t>(ten.band));
      out_(b, std::move(pkt));
      if (ten.deficit <= 0) {
        break;  // tenant quantum spent; siblings in the band get served
      }
    }
    if (BundleBacklogPkts(bun) == 0) {
      DeactivateBundle(b);  // forfeits unused credit (standard DRR)
    } else if (site_blocked_) {
      // The site ran dry mid-turn: not this bundle's fault. Hold its place
      // (and deficit) so service resumes here once site tokens return.
      bun.resuming = true;
    } else {
      // A bundle blocked on tokens must not hoard deficit while idle, or it
      // would burst past its siblings' fair share once tokens return. A
      // deficit-short break keeps its credit: that IS the accumulation.
      if (sent_here == 0 && !deficit_short) {
        bun.deficit = std::min(bun.deficit, bun.quantum);
      }
      IndexRingRemove(bundles_, ten.active_bundles, b);
      IndexRingPushBack(bundles_, ten.active_bundles, b);
    }
  }
  if (ten.active) {  // may have been deactivated by the last bundle draining
    if (site_blocked_) {
      ten.resuming = true;  // keep the head slot; the turn is unfinished
    } else {
      if (sent_total == 0) {
        ten.deficit = std::min(ten.deficit, ten.quantum);  // no credit hoarding
      }
      IndexRingRemove(tenants_, band, t);
      IndexRingPushBack(tenants_, band, t);
    }
  }
  return sent_total;
}

void SiteEgress::Pump() {
  if (in_pump_) {
    return;
  }
  in_pump_ = true;
  const TimePoint now = sim_->now();
  bool progress = true;
  min_wait_ = TimeDelta::Infinite();
  site_blocked_ = false;
  deficit_pending_ = false;
  while ((progress || deficit_pending_) && total_backlog_pkts() > 0) {
    progress = false;
    deficit_pending_ = false;
    // The final (no-progress) pass visits every blocked entity, so the
    // min-wait it accumulates is the correct wakeup deadline.
    min_wait_ = TimeDelta::Infinite();
    site_blocked_ = false;
    for (int band = 0; band < kNumBands && !site_blocked_; ++band) {
      IndexRing& ring = band_ring_[band];
      if (ring.empty()) {
        continue;
      }
      int sent_in_band = 0;
      const size_t visits = ring.count;
      for (size_t v = 0; v < visits && !ring.empty() && !site_blocked_; ++v) {
        sent_in_band += ServeTenant(ring.head, now);
      }
      if (sent_in_band > 0) {
        // Strict priority: rescan from band 0 so newly-eligible high-band
        // traffic preempts before this band gets another round.
        progress = true;
        break;
      }
      // Backlogged but nothing eligible in this band: lower bands may go.
    }
  }
  if (rearm_pending_) {
    // Kick's wakeup is still queued: its callback clears pending_timer_
    // before rearm_pending_ can be set. It goes only now, after the pass, so
    // a wakeup armed below takes its slot.
    BUNDLER_CHECK(sim_->Cancel(pending_timer_));
    pending_timer_ = kInvalidEventId;
    rearm_pending_ = false;
  }
  if (total_backlog_pkts() > 0 && !min_wait_.IsInfinite() &&
      pending_timer_ == kInvalidEventId) {
    pending_timer_ = sim_->Schedule(min_wait_, [this]() {
      pending_timer_ = kInvalidEventId;
      Pump();
    });
  }
  in_pump_ = false;
}

}  // namespace bundler
