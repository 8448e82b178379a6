#include "src/net/link.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

Link::Link(Simulator* sim, std::string name, Rate rate, TimeDelta prop_delay,
           std::unique_ptr<Qdisc> queue, PacketHandler* dst)
    : sim_(sim),
      name_(std::move(name)),
      rate_(rate),
      prop_delay_(prop_delay),
      queue_(std::move(queue)),
      dst_(dst) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(queue_ != nullptr);
  // A zero initial rate is allowed: the link starts parked and waits for
  // set_rate (NetBuilder::AddLink is stricter for static topologies).
  parked_ = rate_.TransmitTime(kMtuBytes).IsInfinite();
  // Register with the observability layer: the link and its egress qdisc are
  // separate trace components; stats the link already keeps are exposed to
  // the counter registry by reference, transition counters are registry-owned.
  obs::Tracer& tracer = sim_->trace();
  comp_ = tracer.RegisterComponent("link", name_);
  queue_->BindObs(&tracer, tracer.RegisterComponent("qdisc", name_));
  obs::CounterRegistry& reg = sim_->counters();
  const std::string prefix = "link." + name_ + ".";
  reg.Expose(prefix + "tx_pkts", &stats_.packets_sent);
  reg.Expose(prefix + "drops", &stats_.drops);
  ctr_rate_changes_ = reg.Counter(prefix + "rate_changes");
  ctr_parks_ = reg.Counter(prefix + "parks");
  ctr_unparks_ = reg.Counter(prefix + "unparks");
  const std::string qprefix = "qdisc." + name_ + ".";
  const Qdisc::Counters& qc = queue_->counters();
  reg.Expose(qprefix + "enq_pkts", &qc.enq_pkts);
  reg.Expose(qprefix + "deq_pkts", &qc.deq_pkts);
  reg.Expose(qprefix + "drop_pkts", &qc.drop_pkts);
  reg.Expose(qprefix + "mark_pkts", &qc.mark_pkts);
}

void Link::set_rate(Rate rate) {
  const bool was_parked = parked_;
  const Rate old_rate = rate_;
  rate_ = rate;
  parked_ = rate_.TransmitTime(kMtuBytes).IsInfinite();
  ++*ctr_rate_changes_;
  if (parked_ != was_parked) {
    ++*(parked_ ? ctr_parks_ : ctr_unparks_);
  }
  if (tracer_enabled(obs::TraceCat::kLink)) {
    obs::Tracer& tracer = sim_->trace();
    tracer.Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkRate, comp_,
                 sim_->now(), obs::EncodeRate(rate_), obs::EncodeRate(old_rate));
    if (parked_ != was_parked) {
      tracer.Trace(obs::TraceCat::kLink,
                   parked_ ? obs::TraceEv::kLinkPark : obs::TraceEv::kLinkUnpark,
                   comp_, sim_->now(), static_cast<uint64_t>(queue_->bytes()));
    }
  }
  // A parked or idle link may now be able to move its queue. The in-flight
  // packet (if any) is untouched: busy_ holds until its already-scheduled
  // completion, so it finishes at the rate its transmission started with.
  MaybeStartTransmission();
}

void Link::set_prop_delay(TimeDelta delay) {
  BUNDLER_CHECK_MSG(delay >= TimeDelta::Zero(), "link '%s': negative prop delay",
                    name_.c_str());
  BUNDLER_CHECK_MSG(boundary_ == nullptr,
                    "link '%s': prop delay is frozen on a shard-boundary link "
                    "(it is the peer shard's conservative lookahead)",
                    name_.c_str());
  if (tracer_enabled(obs::TraceCat::kLink)) {
    sim_->trace().Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkDelay, comp_,
                        sim_->now(), static_cast<uint64_t>(delay.nanos()),
                        static_cast<uint64_t>(prop_delay_.nanos()));
  }
  prop_delay_ = delay;
}

void Link::HandlePacket(Packet pkt) {
  pkt.queue_enter = sim_->now();
  if (!queue_->Enqueue(std::move(pkt), sim_->now())) {
    ++stats_.drops;
    if (tracer_enabled(obs::TraceCat::kLink)) {
      sim_->trace().Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkDrop, comp_,
                          sim_->now(), stats_.drops,
                          static_cast<uint64_t>(queue_->bytes()),
                          static_cast<uint64_t>(queue_->packets()));
    }
  }
  MaybeStartTransmission();
}

void Link::MaybeStartTransmission() {
  if (busy_ || parked_) {
    // Parked: a zero (or unusably slow) rate would overflow serialization
    // math; hold the queue until set_rate makes the link usable again.
    return;
  }
  std::optional<Packet> pkt = queue_->Dequeue(sim_->now());
  if (!pkt.has_value()) {
    return;
  }
  busy_ = true;
  TimeDelta queue_delay = sim_->now() - pkt->queue_enter;
  for (LinkObserver* obs : observers_) {
    obs->OnDequeue(*pkt, queue_delay, sim_->now());
  }
  if (tracer_enabled(obs::TraceCat::kLink)) {
    sim_->trace().Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkTx, comp_,
                        sim_->now(), pkt->flow_id, pkt->size_bytes,
                        static_cast<uint64_t>(queue_delay.nanos()));
  }
  TimeDelta tx = rate_.TransmitTime(pkt->size_bytes);
  BUNDLER_CHECK(!tx.IsInfinite());
  // The packet waits in wire_ until delivery and the events carry its index,
  // so once the pool has grown to the link's peak in-flight count, per-hop
  // scheduling does not allocate.
  const size_t idx = wire_.PushBack(in_flight_, std::move(*pkt));
  sim_->Schedule(tx, [this, idx]() { OnTransmitDone(idx); });
}

void Link::OnTransmitDone(size_t idx) {
  ++stats_.packets_sent;
  stats_.bytes_sent += wire_.At(idx).size_bytes;
  busy_ = false;
  if (boundary_ != nullptr) {
    // Cross-shard: the peer shard replays the propagation delay when it
    // delivers the packet, so this replaces (not duplicates) the local
    // propagation event.
    boundary_->SendBoundary(sim_->now(), prop_delay_, wire_.Take(in_flight_, idx));
    MaybeStartTransmission();
    return;
  }
  sim_->Schedule(prop_delay_, [this, dst = dst_, idx]() {
    // Out of the pool before the handler runs: it may send into this link
    // again, and that push can move the slab.
    dst->HandlePacket(wire_.Take(in_flight_, idx));
  });
  MaybeStartTransmission();
}

}  // namespace bundler
