#include "src/qdisc/fq_codel.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

FqCodel::FqCodel(int64_t limit_packets)
    : limit_packets_(limit_packets), buckets_(kNumBuckets) {
  BUNDLER_CHECK(limit_packets_ > 0);
}

bool FqCodel::DoEnqueue(Packet pkt, TimePoint now) {
  const size_t idx = HashedBucket(pkt.key, kNumBuckets);
  Bucket& b = buckets_[idx];
  pool_.PushBack(b.queue, std::move(pkt));
  if (b.list_state == Bucket::ListState::kNone) {
    b.list_state = Bucket::ListState::kNew;
    b.deficit = kQuantumBytes;
    IndexRingPushBack(buckets_, new_flows_, idx);
  }
  return packets() <= limit_packets_ || !DropFromFattest(idx, now);
}

bool FqCodel::DropFromFattest(size_t pushed, TimePoint now) {
  size_t fattest = 0;
  int64_t fattest_bytes = -1;
  for (const IndexRing* list : {&new_flows_, &old_flows_}) {
    for (size_t idx = list->head; idx != kIndexRingNil; idx = buckets_[idx].next) {
      if (buckets_[idx].queue.bytes > fattest_bytes) {
        fattest_bytes = buckets_[idx].queue.bytes;
        fattest = idx;
      }
    }
  }
  BUNDLER_CHECK(fattest_bytes >= 0);
  Bucket& b = buckets_[fattest];
  // RFC 8290 drops from the head of the fattest flow to signal earlier, so
  // the packet just queued is the victim only when it was alone there.
  CountDrop(pool_.PopFront(b.queue), now);
  // List membership is cleaned up lazily at dequeue time if empty.
  return fattest == pushed && b.queue.empty();
}

std::optional<Packet> FqCodel::DequeueFromList(IndexRing& list, bool is_new_list,
                                               TimePoint now) {
  while (!list.empty()) {
    size_t idx = list.head;
    Bucket& b = buckets_[idx];
    if (b.deficit <= 0) {
      b.deficit += kQuantumBytes;
      IndexRingRemove(buckets_, list, idx);
      b.list_state = Bucket::ListState::kOld;
      IndexRingPushBack(buckets_, old_flows_, idx);
      continue;
    }
    if (b.queue.empty()) {
      IndexRingRemove(buckets_, list, idx);
      if (is_new_list) {
        // An emptied new flow moves to the old list so it keeps its place for
        // one more round (RFC 8290 §4.2).
        b.list_state = Bucket::ListState::kOld;
        IndexRingPushBack(buckets_, old_flows_, idx);
      } else {
        b.list_state = Bucket::ListState::kNone;
      }
      continue;
    }
    Packet pkt = pool_.PopFront(b.queue);
    TimeDelta sojourn = now - pkt.queue_enter;
    if (b.codel.ShouldDrop(sojourn, now)) {
      CountDrop();
      continue;
    }
    b.deficit -= pkt.size_bytes;
    if (b.deficit <= 0) {
      // Quantum spent: rotate to the back of the old list now (equivalent to
      // the head-of-list refill at the next dequeue, but keeps Peek accurate
      // and lets a newly arriving sparse flow preempt immediately).
      b.deficit += kQuantumBytes;
      IndexRingRemove(buckets_, list, idx);
      b.list_state = Bucket::ListState::kOld;
      IndexRingPushBack(buckets_, old_flows_, idx);
    }
    return pkt;
  }
  return std::nullopt;
}

std::optional<Packet> FqCodel::DoDequeue(TimePoint now) {
  std::optional<Packet> pkt = DequeueFromList(new_flows_, /*is_new_list=*/true, now);
  if (pkt.has_value()) {
    return pkt;
  }
  return DequeueFromList(old_flows_, /*is_new_list=*/false, now);
}

const Packet* FqCodel::Peek() const {
  for (const IndexRing* list : {&new_flows_, &old_flows_}) {
    for (size_t idx = list->head; idx != kIndexRingNil; idx = buckets_[idx].next) {
      if (!buckets_[idx].queue.empty()) {
        return &pool_.Front(buckets_[idx].queue);
      }
    }
  }
  return nullptr;
}

}  // namespace bundler
