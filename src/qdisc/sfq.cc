#include "src/qdisc/sfq.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

Sfq::Sfq(int64_t limit_packets) : DrrQueues(kNumBuckets), limit_packets_(limit_packets) {
  BUNDLER_CHECK(limit_packets_ > 0);
}

bool Sfq::DoEnqueue(Packet pkt, TimePoint now) {
  const size_t bucket = HashedBucket(pkt.key, kNumBuckets);
  Push(bucket, std::move(pkt));
  return packets() <= limit_packets_ || !DropFromLongest(bucket, now);
}

}  // namespace bundler
