// Stochastic Fairness Queueing (McKenney, INFOCOM 1990) — the paper's default
// sendbox scheduling policy. Flows hash (HashedBucket: a fixed zero seed,
// never perturbed) into kNumBuckets buckets, the classes of the DRR core
// (src/qdisc/drr.h): buckets are served round-robin with a byte quantum, and
// overflow past the packet limit drops from the longest bucket.
#ifndef SRC_QDISC_SFQ_H_
#define SRC_QDISC_SFQ_H_

#include <cstdint>

#include "src/qdisc/drr.h"

namespace bundler {

class Sfq : public DrrQueues {
 public:
  static constexpr size_t kNumBuckets = 1024;

  // `limit_packets` bounds the total packets across buckets.
  explicit Sfq(int64_t limit_packets);

  const char* name() const override { return "sfq"; }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override;

  int64_t limit_packets_;
};

}  // namespace bundler

#endif  // SRC_QDISC_SFQ_H_
