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
  BUNDLER_CHECK_MSG(!rate_.TransmitTime(kMtuBytes).IsInfinite(),
                    "link '%s' needs a rate that serializes an MTU",
                    name_.c_str());
  // Register with the observability layer: the link and its egress qdisc are
  // separate trace components, and the stats both already keep are exposed
  // to the counter registry by reference.
  obs::Tracer& tracer = sim_->trace();
  comp_ = tracer.RegisterComponent("link", name_);
  queue_->BindObs(&tracer, tracer.RegisterComponent("qdisc", name_));
  obs::CounterRegistry& reg = sim_->counters();
  const std::string prefix = "link." + name_ + ".";
  reg.Expose(prefix + "tx_pkts", &stats_.packets_sent);
  reg.Expose(prefix + "drops", &stats_.drops);
  const std::string qprefix = "qdisc." + name_ + ".";
  const Qdisc::Counters& qc = queue_->counters();
  reg.Expose(qprefix + "enq_pkts", &qc.enq_pkts);
  reg.Expose(qprefix + "deq_pkts", &qc.deq_pkts);
  reg.Expose(qprefix + "drop_pkts", &qc.drop_pkts);
  reg.Expose(qprefix + "mark_pkts", &qc.mark_pkts);
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
  if (busy_) {
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
