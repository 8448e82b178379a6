// Store-and-forward link: serialization rate, propagation delay, and a
// pluggable egress queue discipline. A Link is itself a PacketHandler, so
// topologies compose uniformly (host -> link -> router -> link -> ...).
//
// Rate and delay are mutable mid-run (set_rate / set_prop_delay) so link
// schedules can model failures and time-varying paths. Semantics:
//  - The packet currently being serialized finishes at the rate in force
//    when its transmission started; queued packets drain at the new rate.
//  - Rate zero (or a rate too slow to serialize an MTU in finite simulated
//    time) *parks* the link: nothing dequeues, arrivals accumulate in the
//    queue and drop under its normal policy. A later set_rate restarts
//    transmission; parked sojourn counts toward queue delay.
//  - set_prop_delay applies to packets finishing serialization from now on;
//    bits already propagating keep the delay they departed with.
//
// Packets being serialized or propagating wait in the link's own PacketPool.
// Each transmit-done or propagation event names its packet by pool index, so
// an event captures two or three words rather than a Packet. The index is
// per event, not a FIFO position: after a set_prop_delay decrease a later
// packet arrives first. Events hold the link's address, so a Link is neither
// copied nor moved.
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

  // Change the serialization rate going forward (see the header comment for
  // the in-flight / queued / zero-rate semantics). Unparks the link when the
  // new rate can move packets again.
  void set_rate(Rate rate);
  // Change the propagation delay for packets finishing serialization from
  // now on. Must be >= 0.
  void set_prop_delay(TimeDelta delay);
  // True when the current rate cannot serialize a full MTU in finite
  // simulated time, so the link holds its queue and waits for set_rate.
  bool parked() const { return parked_; }

  void AddObserver(LinkObserver* obs) { observers_.push_back(obs); }
  void set_dst(PacketHandler* dst) { dst_ = dst; }
  // Marks this link as a shard boundary: packets finishing serialization go
  // to `sink` instead of a locally scheduled delivery. The propagation delay
  // becomes the peer shard's lookahead and is frozen (set_prop_delay and
  // link schedules on boundary links CHECK-fail).
  void set_boundary(BoundarySink* sink) { boundary_ = sink; }

 private:
  void MaybeStartTransmission();
  void OnTransmitDone(size_t idx);
  bool tracer_enabled(obs::TraceCat cat) const { return sim_->trace().enabled(cat); }

  Simulator* sim_;
  std::string name_;
  Rate rate_;
  TimeDelta prop_delay_;
  std::unique_ptr<Qdisc> queue_;
  PacketHandler* dst_;
  BoundarySink* boundary_ = nullptr;
  // Observability: trace component id plus registry-owned counters for the
  // control-plane transitions LinkStats does not cover.
  uint32_t comp_ = 0;
  uint64_t* ctr_rate_changes_ = nullptr;
  uint64_t* ctr_parks_ = nullptr;
  uint64_t* ctr_unparks_ = nullptr;
  bool busy_ = false;
  // Cached "rate cannot serialize an MTU" verdict: recomputed only on
  // set_rate, so the per-packet transmission path stays integer-only.
  bool parked_ = false;
  LinkStats stats_;
  std::vector<LinkObserver*> observers_;
  // Packets serializing or propagating, in the order they started
  // serializing; events take them out by index.
  PacketPool wire_;
  PacketPool::Queue in_flight_;
};

}  // namespace bundler

#endif  // SRC_NET_LINK_H_
