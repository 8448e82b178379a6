#include "src/qdisc/fq_codel.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/fnv.h"

namespace bundler {

FqCodel::FqCodel(int64_t limit_packets)
    : limit_packets_(limit_packets), buckets_(kNumBuckets) {
  BUNDLER_CHECK(limit_packets_ > 0);
}

size_t FqCodel::BucketFor(const Packet& pkt) const {
  // Zero hash seed, as in Sfq::BucketFor.
  const uint64_t fields[] = {0,
                             pkt.key.src,
                             pkt.key.dst,
                             static_cast<uint64_t>(pkt.key.src_port),
                             static_cast<uint64_t>(pkt.key.dst_port),
                             static_cast<uint64_t>(pkt.key.protocol)};
  return Mix64(Fnv1a64Combine(fields, 6)) % kNumBuckets;
}

bool FqCodel::DoEnqueue(Packet pkt, TimePoint now) {
  (void)now;
  size_t idx = BucketFor(pkt);
  Bucket& b = buckets_[idx];
  bytes_ += pkt.size_bytes;
  b.bytes += pkt.size_bytes;
  pool_.PushBack(b.queue, std::move(pkt));
  ++packets_;
  if (b.list_state == Bucket::ListState::kNone) {
    b.list_state = Bucket::ListState::kNew;
    b.deficit = kQuantumBytes;
    IndexRingPushBack(buckets_, new_flows_, idx);
  }
  if (packets_ > limit_packets_) {
    DropFromFattest();
    return false;
  }
  return true;
}

void FqCodel::DropFromFattest() {
  size_t fattest = 0;
  int64_t fattest_bytes = -1;
  for (const IndexRing* list : {&new_flows_, &old_flows_}) {
    for (size_t idx = list->head; idx != kIndexRingNil; idx = buckets_[idx].next) {
      if (buckets_[idx].bytes > fattest_bytes) {
        fattest_bytes = buckets_[idx].bytes;
        fattest = idx;
      }
    }
  }
  BUNDLER_CHECK(fattest_bytes >= 0);
  Bucket& b = buckets_[fattest];
  // RFC 8290 drops from the head of the fattest flow to signal earlier.
  Packet victim = pool_.PopFront(b.queue);
  b.bytes -= victim.size_bytes;
  bytes_ -= victim.size_bytes;
  --packets_;
  CountDrop();
  // List membership is cleaned up lazily at dequeue time if empty.
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
    b.bytes -= pkt.size_bytes;
    bytes_ -= pkt.size_bytes;
    --packets_;
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
