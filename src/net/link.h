// Store-and-forward link: serialization rate, propagation delay, and a
// pluggable egress queue discipline. A Link is itself a PacketHandler, so
// topologies compose uniformly (host -> link -> router -> link -> ...). Rate
// and delay are fixed at construction, and the rate must serialize an MTU in
// finite simulated time.
//
// A packet hop costs one event. When a packet starts to serialize, the link
// counts it and schedules its delivery at tx_end + prop_delay on the link's
// own event lane (src/sim/event_queue.h); a boundary link hands it to its
// sink at that moment instead. Rate and delay are fixed, so deliveries come
// in the order packets started: packets serializing or propagating wait in a
// ring, and each delivery pops the front. A transmit-done event exists only
// while a packet waits behind the one serializing: the start schedules it
// when the queue still holds a packet, or the first arrival during
// serialization does. A packet that arrives at or after tx_end with none
// pending finds the link free and starts at once. Events hold the link's
// address, so a Link is neither copied nor moved.
#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/node.h"
#include "src/qdisc/qdisc.h"
#include "src/sim/simulator.h"
#include "src/util/rate.h"
#include "src/util/ring_buffer.h"

namespace bundler {

// Observation hook for monitors (queue delay, throughput). Drops are counted
// in LinkStats and the qdisc's counters, not reported to observers.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  // Fired when a packet begins serialization; `queue_delay` is its sojourn in
  // the egress queue.
  virtual void OnDequeue(const Packet& pkt, TimeDelta queue_delay, TimePoint now) = 0;
};

// A packet counts as sent when it starts to serialize.
struct LinkStats {
  uint64_t packets_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t drops = 0;
};

// Shard-boundary egress: when a link's destination lives in a different
// shard, packets are handed to a BoundarySink (an SPSC ring to the peer
// shard; see src/sim/shard_channel.h) instead of being delivered on the
// link's lane. The link sends as a packet starts to serialize, with `sent`
// the time its serialization ends. The propagation delay travels with the
// packet and doubles as the conservative-lookahead bound of the receiving
// shard.
class BoundarySink {
 public:
  virtual ~BoundarySink() = default;
  virtual void SendBoundary(TimePoint sent, TimeDelta prop_delay, Packet pkt) = 0;
};

class Link : public PacketHandler {
 public:
  Link(Simulator* sim, std::string name, Rate rate, TimeDelta prop_delay,
       std::unique_ptr<Qdisc> queue, PacketHandler* dst);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Enqueue for transmission.
  void HandlePacket(Packet pkt) override;

  Qdisc* queue() { return queue_.get(); }
  const LinkStats& stats() const { return stats_; }
  Rate rate() const { return rate_; }
  TimeDelta prop_delay() const { return prop_delay_; }
  const std::string& name() const { return name_; }

  void AddObserver(LinkObserver* obs) { observers_.push_back(obs); }
  void set_dst(PacketHandler* dst) { dst_ = dst; }
  // Marks this link as a shard boundary: packets starting serialization go
  // to `sink` instead of the link's delivery lane. The propagation delay
  // becomes the peer shard's lookahead.
  void set_boundary(BoundarySink* sink) { boundary_ = sink; }

 private:
  // Dequeues the next packet, if any, and starts serializing it. The link
  // must be free.
  void StartTransmission();
  // While a packet serializes: the transmit-done at tx_end_, if a packet
  // waits for it.
  void ScheduleTransmitDoneIfQueued();
  // The lane's callback: hands the oldest packet in flight to dst_.
  void Deliver();
  bool tracer_enabled(obs::TraceCat cat) const { return sim_->trace().enabled(cat); }

  Simulator* sim_;
  std::string name_;
  const Rate rate_;
  const TimeDelta prop_delay_;
  std::unique_ptr<Qdisc> queue_;
  PacketHandler* dst_;
  BoundarySink* boundary_ = nullptr;
  uint32_t comp_ = 0;  // trace component id
  EventQueue::LaneId deliveries_;
  // When the packet serializing, or the last one, finishes.
  TimePoint tx_end_;
  bool tx_done_pending_ = false;
  LinkStats stats_;
  std::vector<LinkObserver*> observers_;
  // Packets serializing or propagating, in the order they started.
  RingBuffer<Packet> in_flight_;
};

}  // namespace bundler

#endif  // SRC_NET_LINK_H_
