#include "src/qdisc/sfq.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/fnv.h"

namespace bundler {

Sfq::Sfq(const Config& config) : config_(config), buckets_(config.num_buckets) {
  BUNDLER_CHECK(config_.num_buckets > 0);
  BUNDLER_CHECK(config_.limit_packets > 0);
  BUNDLER_CHECK(config_.quantum_bytes > 0);
}

size_t Sfq::BucketFor(const Packet& pkt) const {
  const uint64_t fields[] = {config_.perturbation,
                             pkt.key.src,
                             pkt.key.dst,
                             static_cast<uint64_t>(pkt.key.src_port),
                             static_cast<uint64_t>(pkt.key.dst_port),
                             static_cast<uint64_t>(pkt.key.protocol)};
  return Mix64(Fnv1a64Combine(fields, 6)) % config_.num_buckets;
}

bool Sfq::DoEnqueue(Packet pkt, TimePoint now) {
  (void)now;
  size_t idx = BucketFor(pkt);
  Bucket& b = buckets_[idx];
  bytes_ += pkt.size_bytes;
  b.bytes += pkt.size_bytes;
  pool_.PushBack(b.queue, std::move(pkt));
  ++packets_;
  if (!b.active) {
    b.active = true;
    b.deficit = 0;
    IndexRingPushBack(buckets_, rr_, idx);
  }
  if (packets_ > config_.limit_packets) {
    DropFromLongest();
    return false;  // some packet (possibly this one) was dropped
  }
  return true;
}

void Sfq::DropFromLongest() {
  // Linux SFQ drops from the tail of the longest (most bytes) flow queue.
  size_t longest = 0;
  int64_t longest_bytes = -1;
  for (size_t idx = rr_.head; idx != kIndexRingNil; idx = buckets_[idx].next) {
    if (buckets_[idx].bytes > longest_bytes) {
      longest_bytes = buckets_[idx].bytes;
      longest = idx;
    }
  }
  BUNDLER_CHECK(longest_bytes >= 0);
  Bucket& b = buckets_[longest];
  Packet victim = pool_.PopBack(b.queue);
  b.bytes -= victim.size_bytes;
  bytes_ -= victim.size_bytes;
  --packets_;
  CountDrop();
  if (b.queue.empty()) {
    b.active = false;
    IndexRingRemove(buckets_, rr_, longest);
  }
}

std::optional<Packet> Sfq::DoDequeue(TimePoint now) {
  (void)now;
  while (!rr_.empty()) {
    size_t idx = rr_.head;
    Bucket& b = buckets_[idx];
    if (b.queue.empty()) {
      b.active = false;
      IndexRingRemove(buckets_, rr_, idx);
      continue;
    }
    if (b.deficit <= 0) {
      // New round for this bucket: move to the back with a fresh quantum.
      b.deficit += config_.quantum_bytes;
      IndexRingRemove(buckets_, rr_, idx);
      IndexRingPushBack(buckets_, rr_, idx);
      continue;
    }
    Packet pkt = pool_.PopFront(b.queue);
    b.bytes -= pkt.size_bytes;
    b.deficit -= pkt.size_bytes;
    bytes_ -= pkt.size_bytes;
    --packets_;
    if (b.queue.empty()) {
      b.active = false;
      IndexRingRemove(buckets_, rr_, idx);
    }
    return pkt;
  }
  return std::nullopt;
}

const Packet* Sfq::Peek() const {
  for (size_t idx = rr_.head; idx != kIndexRingNil; idx = buckets_[idx].next) {
    const Bucket& b = buckets_[idx];
    if (!b.queue.empty()) {
      return &pool_.Front(b.queue);
    }
  }
  return nullptr;
}

}  // namespace bundler
