// One packet slab shared by every queue of a multi-queue scheduler: SFQ and
// FQ-CoDel buckets, DRR flow slots, StrictPrio bands and SiteEgress's FIFO
// bundles. Each queue is an IndexRing (src/util/index_ring.h) threaded
// through the slab's {Packet, prev, next} nodes, so push-back, pop-front and
// pop-back are O(1), and a popped node goes on a free list for the next
// push. The slab therefore grows only to the scheduler's peak
// *total* occupancy, as Linux sch_sfq bounds its queues with one shared slot
// table; a ring per queue would keep every queue's own high-water mark for
// the rest of the run. Growth reallocates the slab (amortized doubling), so
// once a scheduler has seen its peak backlog, churn allocates nothing.
//
// Queues hold only indices. A reference from Front() is valid until the next
// PushBack on the same pool, which may move the slab.
#ifndef SRC_QDISC_PACKET_POOL_H_
#define SRC_QDISC_PACKET_POOL_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/util/check.h"
#include "src/util/index_ring.h"

namespace bundler {

class PacketPool {
 public:
  // One FIFO over the pool: head, tail and packet count. Default-constructed
  // empty; it owns nothing, so a scheduler may keep thousands of them.
  using Queue = IndexRing;

  void PushBack(Queue& q, Packet pkt) {
    size_t idx = free_;
    if (idx != kIndexRingNil) {
      free_ = nodes_[idx].next;
      nodes_[idx].pkt = std::move(pkt);
    } else {
      idx = nodes_.size();
      nodes_.push_back(Node{std::move(pkt)});
    }
    IndexRingPushBack(nodes_, q, idx);
  }

  Packet PopFront(Queue& q) {
    BUNDLER_CHECK(!q.empty());
    return Take(q, q.head);
  }

  // Drop-from-longest policies trim a queue's tail.
  Packet PopBack(Queue& q) {
    BUNDLER_CHECK(!q.empty());
    return Take(q, q.tail);
  }

  const Packet& Front(const Queue& q) const {
    BUNDLER_CHECK(!q.empty());
    return nodes_[q.head].pkt;
  }

  // Nodes in the slab: the pool's peak total occupancy so far.
  size_t slab_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    Packet pkt;
    size_t prev = kIndexRingNil;
    size_t next = kIndexRingNil;  // doubles as the free-list link
  };

  Packet Take(Queue& q, size_t idx) {
    IndexRingRemove(nodes_, q, idx);
    Packet out = std::move(nodes_[idx].pkt);
    nodes_[idx].next = free_;
    free_ = idx;
    return out;
  }

  std::vector<Node> nodes_;
  size_t free_ = kIndexRingNil;
};

}  // namespace bundler

#endif  // SRC_QDISC_PACKET_POOL_H_
