#include "src/qdisc/drr.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

size_t DrrQueues::AddClass() {
  classes_.emplace_back();
  return classes_.size() - 1;
}

void DrrQueues::Push(size_t c, Packet pkt) {
  Class& cls = classes_[c];
  pool_.PushBack(cls.queue, std::move(pkt));
  if (cls.queue.size() == 1) {
    cls.deficit = 0;
    IndexRingPushBack(classes_, round_, c);
  }
}

void DrrQueues::Leave(size_t c) {
  IndexRingRemove(classes_, round_, c);
  OnIdle(c);
}

bool DrrQueues::DropFromLongest(size_t pushed, TimePoint now) {
  // Linux SFQ drops from the tail of the longest (most bytes) queue.
  BUNDLER_CHECK(!round_.empty());
  size_t longest = round_.head;
  for (size_t c = classes_[longest].next; c != kIndexRingNil; c = classes_[c].next) {
    if (classes_[c].queue.bytes > classes_[longest].queue.bytes) {
      longest = c;
    }
  }
  PacketPool::Queue& queue = classes_[longest].queue;
  CountDrop(pool_.PopBack(queue), now);
  if (queue.empty()) {
    Leave(longest);
  }
  return longest == pushed;
}

std::optional<Packet> DrrQueues::DoDequeue(TimePoint now) {
  (void)now;
  while (!round_.empty()) {
    const size_t c = round_.head;
    Class& cls = classes_[c];
    if (cls.deficit <= 0) {
      // New round for this class: move to the back with a fresh quantum.
      cls.deficit += kQuantumBytes;
      IndexRingRemove(classes_, round_, c);
      IndexRingPushBack(classes_, round_, c);
      continue;
    }
    Packet pkt = pool_.PopFront(cls.queue);
    cls.deficit -= pkt.size_bytes;
    if (cls.queue.empty()) {
      Leave(c);
    }
    return pkt;
  }
  return std::nullopt;
}

const Packet* DrrQueues::Peek() const {
  return round_.empty() ? nullptr : &pool_.Front(classes_[round_.head].queue);
}

Drr::Drr(int64_t limit_bytes) : DrrQueues(0), limit_bytes_(limit_bytes) {
  BUNDLER_CHECK(limit_bytes_ > 0);
}

bool Drr::DoEnqueue(Packet pkt, TimePoint now) {
  const uint64_t flow = FlowKeyHash(pkt.key);
  size_t c = class_of_flow_.Find(flow);
  if (c != 0) {
    --c;
  } else {
    if (free_classes_.empty()) {
      c = AddClass();
      flow_of_class_.push_back(flow);
    } else {
      c = free_classes_.back();
      free_classes_.pop_back();
      flow_of_class_[c] = flow;
    }
    class_of_flow_.Insert(flow, c + 1);
  }
  Push(c, std::move(pkt));
  return bytes() <= limit_bytes_ || !DropFromLongest(c, now);
}

void Drr::OnIdle(size_t c) {
  class_of_flow_.Erase(flow_of_class_[c]);
  free_classes_.push_back(c);
}

}  // namespace bundler
