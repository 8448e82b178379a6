#include "src/transport/endpoint.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

Host::Host(Simulator* sim, Address addr, PacketHandler* egress)
    : sim_(sim), addr_(addr), egress_(egress) {
  BUNDLER_CHECK(sim_ != nullptr);
}

void Host::HandlePacket(Packet pkt) {
  PacketHandler* handler = flows_.Find(pkt.flow_id);
  if (handler != nullptr) {
    handler->HandlePacket(std::move(pkt));
    return;
  }
  if (pkt.type == PacketType::kData && pkt.flow_total_pkts > 0) {
    // TIME_WAIT without per-flow state. CreateTcpFlow registers a receiver
    // before the flow's first data packet leaves, so finite-flow data with no
    // handler belongs to a receiver that completed and unregistered. Its
    // cumulative point is the flow's segment count: re-ACK exactly that, so
    // a sender whose final ACKs were lost still completes.
    Packet ack = MakeAckPacket(pkt, /*ack_src=*/pkt.key.dst, /*ack_dst=*/pkt.key.src);
    ack.seq = pkt.flow_total_pkts;
    ack.request_id = pkt.request_id;
    SendOut(std::move(ack));
    return;
  }
  // Flow already torn down (e.g. a dup-ACK after its sender completed, or a
  // retried request whose response already started) or not yet created; drop
  // silently like a closed socket would.
  ++unclaimed_;
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

void Host::ResolveTcpObs() {
  if (tcp_obs_.retransmits != nullptr) {
    return;
  }
  // Names stay <= 15 chars so the registry lookup strings are SSO.
  tcp_obs_.comp = sim_->trace().FindOrRegisterComponent("tcp", "tcp");
  obs::CounterRegistry& reg = sim_->counters();
  tcp_obs_.retransmits = reg.Counter("tcp.retransmits");
  tcp_obs_.rtos = reg.Counter("tcp.rtos");
  tcp_obs_.spurious = reg.Counter("tcp.spurious");
  tcp_obs_.recoveries = reg.Counter("tcp.recoveries");
}

uint16_t Host::AllocPort() {
  uint16_t port = next_port_;
  ++next_port_;
  if (next_port_ == 0) {
    next_port_ = 1024;  // wrap past the reserved range
  }
  return port;
}

}  // namespace bundler
