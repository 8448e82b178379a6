// Store-and-forward link: serialization rate, propagation delay, and a
// pluggable egress queue discipline. A Link is itself a PacketHandler, so
// topologies compose uniformly (host -> link -> router -> link -> ...). Rate
// and delay are fixed at construction, and the rate must serialize an MTU in
// finite simulated time.
//
// Packets being serialized or propagating wait in the link's own PacketPool,
// in the order they started serializing. Each transmit-done or propagation
// event names its packet by pool index, so an event captures two or three
// words rather than a Packet. The index is per event because the two events
// read opposite ends of that order: the transmit-done event names the newest
// packet (the one serializing), the propagation event the oldest. Events hold
// the link's address, so a Link is neither copied nor moved.
#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/node.h"
#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"
#include "src/sim/simulator.h"
#include "src/util/rate.h"

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

struct LinkStats {
  uint64_t packets_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t drops = 0;
};

// Shard-boundary egress: when a link's destination lives in a different
// shard, finished packets are handed to a BoundarySink (an SPSC ring to the
// peer shard; see src/sim/shard_channel.h) instead of being scheduled as a
// local propagation event. The propagation delay travels with the packet and
// doubles as the conservative-lookahead bound of the receiving shard.
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
  // Marks this link as a shard boundary: packets finishing serialization go
  // to `sink` instead of a locally scheduled delivery. The propagation delay
  // becomes the peer shard's lookahead.
  void set_boundary(BoundarySink* sink) { boundary_ = sink; }

 private:
  void MaybeStartTransmission();
  void OnTransmitDone(size_t idx);
  bool tracer_enabled(obs::TraceCat cat) const { return sim_->trace().enabled(cat); }

  Simulator* sim_;
  std::string name_;
  const Rate rate_;
  const TimeDelta prop_delay_;
  std::unique_ptr<Qdisc> queue_;
  PacketHandler* dst_;
  BoundarySink* boundary_ = nullptr;
  uint32_t comp_ = 0;  // trace component id
  bool busy_ = false;
  LinkStats stats_;
  std::vector<LinkObserver*> observers_;
  // Packets serializing or propagating, in the order they started
  // serializing; events take them out by index.
  PacketPool wire_;
  PacketPool::Queue in_flight_;
};

}  // namespace bundler

#endif  // SRC_NET_LINK_H_
