#include "src/transport/endpoint.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

namespace {
// The demux value of every retired receiver's flow id. HandlePacket
// recognises it by address and answers in the receiver's place; it is never
// invoked.
SinkHandler g_retired_receiver;
}  // namespace

Host::Host(Simulator* sim, Address addr, PacketHandler* egress)
    : sim_(sim), addr_(addr), egress_(egress) {
  BUNDLER_CHECK(sim_ != nullptr);
}

void Host::HandlePacket(Packet pkt) {
  PacketHandler* handler = flows_.Find(pkt.flow_id);
  if (handler == &g_retired_receiver) {
    // A completed receiver's TIME_WAIT: its cumulative point is the flow's
    // segment count, so re-ACK exactly that (see RetireReceiver).
    if (pkt.type == PacketType::kData) {
      Packet ack = MakeAckPacket(pkt, /*ack_src=*/pkt.key.dst, /*ack_dst=*/pkt.key.src);
      ack.seq = pkt.flow_total_pkts;
      ack.request_id = pkt.request_id;
      SendOut(std::move(ack));
    }
    return;
  }
  if (handler == nullptr) {
    // Flow already torn down (e.g. a dup-ACK after its sender completed) or
    // not yet created; drop silently like a closed socket would.
    ++unclaimed_;
    return;
  }
  handler->HandlePacket(std::move(pkt));
}

void Host::SendOut(Packet pkt) {
  pkt.ip_id = next_ip_id_++;
  BUNDLER_CHECK(egress_ != nullptr);
  egress_->HandlePacket(std::move(pkt));
}

void Host::Register(uint64_t flow_id, PacketHandler* handler) {
  BUNDLER_CHECK(handler != nullptr);
  flows_.Insert(flow_id, handler);
}

void Host::Unregister(uint64_t flow_id) { flows_.Erase(flow_id); }

void Host::RetireReceiver(uint64_t flow_id) { flows_.Insert(flow_id, &g_retired_receiver); }

uint16_t Host::AllocPort() {
  uint16_t port = next_port_;
  ++next_port_;
  if (next_port_ == 0) {
    next_port_ = 1024;  // wrap past the reserved range
  }
  return port;
}

}  // namespace bundler
