#include "src/net/packet.h"

#include <cstdio>
#include <cstring>
#include <type_traits>

namespace bundler {
namespace {
const char* TypeName(PacketType t) {
  switch (t) {
    case PacketType::kData:
      return "data";
    case PacketType::kAck:
      return "ack";
    case PacketType::kBundlerFeedback:
      return "fb";
    case PacketType::kBundlerEpochCtl:
      return "epochctl";
  }
  return "?";
}
}  // namespace

std::string Packet::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s flow=%llu seq=%lld size=%u %u.%u:%u->%u.%u:%u",
                TypeName(type), static_cast<unsigned long long>(flow_id),
                static_cast<long long>(seq), size_bytes, SiteOf(key.src), HostOf(key.src),
                key.src_port, SiteOf(key.dst), HostOf(key.dst), key.dst_port);
  return buf;
}

Packet Packet::Clone() const {
  // Byte copy so new fields can never be silently dropped; the copy ctor is
  // only deleted to keep the datapath move-only, not because copying is
  // unsafe.
  static_assert(std::is_trivially_copyable_v<Packet>);
  Packet p;
  std::memcpy(&p, this, sizeof(Packet));
  return p;
}

uint64_t FlowKeyHash(const FlowKey& key, uint64_t seed) {
  const uint64_t fields[] = {key.src, key.dst, key.src_port, key.dst_port, key.protocol};
  return Fnv1a64Combine(fields, 5, seed);
}

Packet MakeDataPacket(uint64_t flow_id, const FlowKey& key, int64_t seq, uint32_t size_bytes) {
  Packet p;
  p.flow_id = flow_id;
  p.type = PacketType::kData;
  p.size_bytes = size_bytes;
  p.key = key;
  p.seq = seq;
  return p;
}

Packet MakeAckPacket(const Packet& data, Address ack_src, Address ack_dst) {
  Packet p;
  p.flow_id = data.flow_id;
  p.type = PacketType::kAck;
  p.size_bytes = kAckBytes;
  p.key.src = ack_src;
  p.key.dst = ack_dst;
  p.key.src_port = data.key.dst_port;
  p.key.dst_port = data.key.src_port;
  p.key.protocol = data.key.protocol;
  p.acked_data_seq = data.seq;
  p.echo_tx_time = data.tx_time;
  p.echo_delivered_at_tx = data.delivered_at_tx;
  p.echo_retransmit = data.retransmit;
  return p;
}

}  // namespace bundler
