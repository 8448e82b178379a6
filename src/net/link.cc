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
  deliveries_ = sim_->AddLane([this]() { Deliver(); });
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
  if (tx_done_pending_) {
    return;  // the pending transmit-done dequeues
  }
  if (sim_->now() >= tx_end_) {
    StartTransmission();  // the link is free
    return;
  }
  // Serializing, and until now nothing waited behind that packet.
  ScheduleTransmitDoneIfQueued();
}

void Link::StartTransmission() {
  std::optional<Packet> pkt = queue_->Dequeue(sim_->now());
  if (!pkt.has_value()) {
    return;
  }
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
  tx_end_ = sim_->now() + tx;
  ++stats_.packets_sent;
  stats_.bytes_sent += pkt->size_bytes;
  ScheduleTransmitDoneIfQueued();
  if (boundary_ != nullptr) {
    // Cross-shard: the peer shard replays the propagation delay when it
    // delivers the packet, so this replaces (not duplicates) the delivery.
    boundary_->SendBoundary(tx_end_, prop_delay_, std::move(*pkt));
    return;
  }
  // Once the ring and the lane have grown to the link's peak in-flight
  // count, a hop does not allocate.
  in_flight_.emplace_back(std::move(*pkt));
  sim_->ScheduleLaneAt(deliveries_, tx_end_ + prop_delay_);
}

void Link::ScheduleTransmitDoneIfQueued() {
  if (!queue_->Empty()) {
    tx_done_pending_ = true;
    sim_->ScheduleAt(tx_end_, [this]() {
      tx_done_pending_ = false;
      StartTransmission();
    });
  }
}

void Link::Deliver() {
  // Out of the ring before the handler runs: it may send into this link
  // again, and that push can grow the ring.
  dst_->HandlePacket(in_flight_.pop_front());
}

}  // namespace bundler
