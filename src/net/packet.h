// Packet model. One struct covers every message type in the simulation:
// transport data segments, transport ACKs, and Bundler's two out-of-band
// control messages (congestion ACK feedback and epoch-size updates). Packets
// move by value and are move-only: the struct is flat but ~176 bytes, and a
// packet traverses many layers per hop (handler -> qdisc -> shaper -> link),
// so accidental copies silently double the datapath's per-packet cost. The
// rare legitimate duplication (tests, fan-out experiments) must say
// Clone() explicitly.
#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <cstdint>
#include <string>

#include "src/util/fnv.h"
#include "src/util/time.h"

namespace bundler {

// Addresses encode (site, host): traffic control in this system is site
// granular (§1), so routing and bundle classification key on the site bits.
using Address = uint32_t;
using SiteId = uint16_t;

constexpr Address MakeAddress(SiteId site, uint16_t host) {
  return (static_cast<Address>(site) << 16) | host;
}
constexpr SiteId SiteOf(Address a) { return static_cast<SiteId>(a >> 16); }
constexpr uint16_t HostOf(Address a) { return static_cast<uint16_t>(a & 0xffff); }

// Host number of a site's Bundler box (§4.5). Sendbox and receivebox
// exchange out-of-band control messages addressed to CtlAddress(site), so
// both ends of a bundle derive every control address from its site pair.
inline constexpr uint16_t kBundlerCtlHost = 0xFFFE;
constexpr Address CtlAddress(SiteId site) { return MakeAddress(site, kBundlerCtlHost); }

enum class PacketType : uint8_t {
  kData = 0,             // transport payload (TCP-like or UDP app)
  kAck = 1,              // transport cumulative ACK
  kBundlerFeedback = 2,  // receivebox -> sendbox congestion ACK (§4.5)
  kBundlerEpochCtl = 3,  // sendbox -> receivebox epoch size update (§4.5)
};

struct FlowKey {
  Address src = 0;
  Address dst = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 6;  // 6 = TCP-like, 17 = UDP-like

  bool operator==(const FlowKey&) const = default;
};

// FNV-1a (src/util/fnv.h) over the five-tuple, each field widened to 64 bits
// and chained from `seed`: the one place the fields are listed for hashing.
// DRR demultiplexes flows on it; a consumer that reduces it to a small index
// (ECMP paths, hashed queue buckets) finalizes with Mix64 first.
uint64_t FlowKeyHash(const FlowKey& key, uint64_t seed = kFnv64OffsetBasis);

// Wire sizes.
inline constexpr uint32_t kMtuBytes = 1500;       // full-size data segment on the wire
inline constexpr uint32_t kHeaderBytes = 52;      // IP + transport headers
inline constexpr uint32_t kMssBytes = kMtuBytes - kHeaderBytes;  // payload per segment
inline constexpr uint32_t kAckBytes = 40;
inline constexpr uint32_t kControlBytes = 40;     // Bundler out-of-band messages

struct Packet {
  Packet() = default;
  Packet(Packet&&) = default;
  Packet& operator=(Packet&&) = default;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  // Explicit duplication for the few places that genuinely need two copies
  // (observer snapshots in tests, fan-out). The hot path never clones.
  Packet Clone() const;

  uint64_t id = 0;       // globally unique, for debugging
  uint64_t flow_id = 0;  // simulation-level flow identity (endpoint demux)
  PacketType type = PacketType::kData;
  uint32_t size_bytes = kMtuBytes;
  FlowKey key;
  // IPv4 identification field: increments per transmission at the sender, so
  // a retransmission hashes differently from the original (§4.5 requirement
  // (iv)).
  uint16_t ip_id = 0;

  // --- Transport (kData / kAck) ---
  int64_t seq = 0;          // data: segment index within the flow; ack: next expected index
  int64_t flow_total_pkts = 0;  // data: total segments in the flow (0 = unbounded)
  bool retransmit = false;
  TimePoint tx_time;            // data: stamped at first transmission by the sender
  int64_t delivered_at_tx = 0;  // data: sender's delivered-bytes counter at send time
  // ACK fields echoing the data packet that triggered the ACK (timestamp-echo
  // keeps the receiver stateless for RTT and delivery-rate sampling).
  int64_t acked_data_seq = -1;
  TimePoint echo_tx_time;
  int64_t echo_delivered_at_tx = 0;
  bool echo_retransmit = false;

  // --- Bundler control (kBundlerFeedback / kBundlerEpochCtl) ---
  uint64_t boundary_hash = 0;    // feedback: hash of the epoch boundary packet
  int64_t fb_bytes_received = 0; // feedback: receivebox cumulative byte count
  uint64_t fb_seq = 0;           // feedback: emission sequence at the receivebox
  uint32_t epoch_size_pkts = 0;  // epoch ctl: new epoch size (power of two)

  // --- Application metadata ---
  uint64_t request_id = 0;  // FCT bookkeeping
  uint8_t priority = 0;     // class for priority scheduling policies

  // Scratch: stamped by queues on enqueue to account sojourn time.
  TimePoint queue_enter;

  std::string ToString() const;
};

// Factory helpers with the common fields filled in.
Packet MakeDataPacket(uint64_t flow_id, const FlowKey& key, int64_t seq, uint32_t size_bytes);
Packet MakeAckPacket(const Packet& data, Address ack_src, Address ack_dst);

}  // namespace bundler

#endif  // SRC_NET_PACKET_H_
