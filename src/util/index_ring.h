// Intrusive doubly linked list over externally-stored, index-addressed nodes —
// the discipline of a std::list of indices without a node allocation per
// insert. Users: the fair-queueing qdiscs' service order (SFQ buckets, DRR
// flow slots, FQ-CoDel's new/old lists), SiteEgress's active tenant and
// bundle rings, and PacketPool (src/qdisc/packet_pool.h), where every packet
// queue is an IndexRing over the pool's slab. Nodes expose `size_t prev,
// next` members and live in a container indexed by size_t (the container may
// reallocate; only indices are stored). Keeping the pointer surgery in one
// place preserves the byte-identical-service-order invariant for every user
// at once.
#ifndef SRC_UTIL_INDEX_RING_H_
#define SRC_UTIL_INDEX_RING_H_

#include <cstddef>

namespace bundler {

inline constexpr size_t kIndexRingNil = static_cast<size_t>(-1);

// Head/tail/count of one ring. Nodes are linked through their own
// prev/next fields, so membership state lives with the node.
struct IndexRing {
  size_t head = kIndexRingNil;
  size_t tail = kIndexRingNil;
  size_t count = 0;

  bool empty() const { return head == kIndexRingNil; }
  size_t size() const { return count; }
};

// Appends `idx` (which must not currently be linked) at the tail.
template <typename Container>
void IndexRingPushBack(Container& nodes, IndexRing& ring, size_t idx) {
  auto& node = nodes[idx];
  node.prev = ring.tail;
  node.next = kIndexRingNil;
  if (ring.tail == kIndexRingNil) {
    ring.head = idx;
  } else {
    nodes[ring.tail].next = idx;
  }
  ring.tail = idx;
  ++ring.count;
}

// Unlinks `idx` (which must currently be linked) from anywhere in the ring.
template <typename Container>
void IndexRingRemove(Container& nodes, IndexRing& ring, size_t idx) {
  auto& node = nodes[idx];
  if (node.prev == kIndexRingNil) {
    ring.head = node.next;
  } else {
    nodes[node.prev].next = node.next;
  }
  if (node.next == kIndexRingNil) {
    ring.tail = node.prev;
  } else {
    nodes[node.next].prev = node.prev;
  }
  node.prev = node.next = kIndexRingNil;
  --ring.count;
}

}  // namespace bundler

#endif  // SRC_UTIL_INDEX_RING_H_
