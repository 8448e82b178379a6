#include "src/qdisc/drr.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/fnv.h"

namespace bundler {

Drr::Drr(int64_t limit_bytes) : limit_bytes_(limit_bytes) {
  BUNDLER_CHECK(limit_bytes_ > 0);
}

uint64_t Drr::FlowHash(const Packet& pkt) {
  const uint64_t fields[] = {pkt.key.src,
                             pkt.key.dst,
                             static_cast<uint64_t>(pkt.key.src_port),
                             static_cast<uint64_t>(pkt.key.dst_port),
                             static_cast<uint64_t>(pkt.key.protocol)};
  return Fnv1a64Combine(fields, 5);
}

void Drr::ReleaseSlot(size_t slot) {
  slots_[slot].active = false;
  IndexRingRemove(slots_, rr_, slot);
  flow_to_slot_.Erase(slots_[slot].flow);
  free_slots_.push_back(slot);
}

bool Drr::DoEnqueue(Packet pkt, TimePoint now) {
  (void)now;
  const uint64_t flow = FlowHash(pkt);
  size_t slot = flow_to_slot_.Find(flow);
  if (slot == 0) {
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = slots_.size();
      slots_.emplace_back();
    }
    flow_to_slot_.Insert(flow, slot + 1);
    slots_[slot].flow = flow;
  } else {
    --slot;
  }
  FlowQueue& fq = slots_[slot];
  bytes_ += pkt.size_bytes;
  fq.bytes += pkt.size_bytes;
  pool_.PushBack(fq.queue, std::move(pkt));
  ++packets_;
  if (!fq.active) {
    fq.active = true;
    fq.deficit = 0;
    IndexRingPushBack(slots_, rr_, slot);
  }
  if (bytes_ > limit_bytes_) {
    DropFromLongest();
    return false;
  }
  return true;
}

void Drr::DropFromLongest() {
  size_t longest = 0;
  int64_t longest_bytes = -1;
  for (size_t slot = rr_.head; slot != kIndexRingNil; slot = slots_[slot].next) {
    if (slots_[slot].bytes > longest_bytes) {
      longest_bytes = slots_[slot].bytes;
      longest = slot;
    }
  }
  BUNDLER_CHECK(longest_bytes >= 0);
  FlowQueue& fq = slots_[longest];
  Packet victim = pool_.PopBack(fq.queue);
  fq.bytes -= victim.size_bytes;
  bytes_ -= victim.size_bytes;
  --packets_;
  CountDrop();
  if (fq.queue.empty()) {
    ReleaseSlot(longest);
  }
}

std::optional<Packet> Drr::DoDequeue(TimePoint now) {
  (void)now;
  while (!rr_.empty()) {
    size_t slot = rr_.head;
    FlowQueue& fq = slots_[slot];
    if (fq.queue.empty()) {
      ReleaseSlot(slot);
      continue;
    }
    if (fq.deficit <= 0) {
      fq.deficit += kQuantumBytes;
      IndexRingRemove(slots_, rr_, slot);
      IndexRingPushBack(slots_, rr_, slot);
      continue;
    }
    Packet pkt = pool_.PopFront(fq.queue);
    fq.bytes -= pkt.size_bytes;
    fq.deficit -= pkt.size_bytes;
    bytes_ -= pkt.size_bytes;
    --packets_;
    if (fq.queue.empty()) {
      ReleaseSlot(slot);
    }
    return pkt;
  }
  return std::nullopt;
}

const Packet* Drr::Peek() const {
  for (size_t slot = rr_.head; slot != kIndexRingNil; slot = slots_[slot].next) {
    if (!slots_[slot].queue.empty()) {
      return &pool_.Front(slots_[slot].queue);
    }
  }
  return nullptr;
}

}  // namespace bundler
