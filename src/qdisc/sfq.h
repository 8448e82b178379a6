// Stochastic Fairness Queueing (McKenney, INFOCOM 1990) — the paper's default
// sendbox scheduling policy. Flows hash (with a perturbation seed) into a
// fixed set of buckets; buckets are served round-robin with a byte quantum,
// and overflow drops from the currently longest bucket, which is what bounds
// any one flow's share of the buffer. Every bucket queues in one shared
// PacketPool, so queue memory follows the packets held (at most the limit),
// not the sum of each bucket's high-water mark.
#ifndef SRC_QDISC_SFQ_H_
#define SRC_QDISC_SFQ_H_

#include <cstdint>
#include <vector>

#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"
#include "src/util/index_ring.h"

namespace bundler {

class Sfq : public Qdisc {
 public:
  struct Config {
    size_t num_buckets = 1024;
    int64_t limit_packets = 4000;   // total packets across buckets
    int64_t quantum_bytes = 1514;   // bytes a bucket may send per round
    uint64_t perturbation = 0;      // hash seed
  };

  explicit Sfq(const Config& config);

  const Packet* Peek() const override;
  int64_t bytes() const override { return bytes_; }
  int64_t packets() const override { return packets_; }
  const char* name() const override { return "sfq"; }

  size_t BucketFor(const Packet& pkt) const;
  size_t active_buckets() const { return rr_.size(); }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override;
  std::optional<Packet> DoDequeue(TimePoint now) override;

  // Buckets link into an intrusive round-robin ring (src/util/index_ring.h):
  // list-of-indices discipline without a node allocation per activation —
  // the sendbox's default scheduler sits on the datapath.
  struct Bucket {
    PacketPool::Queue queue;
    int64_t bytes = 0;
    int64_t deficit = 0;
    bool active = false;
    size_t prev = kIndexRingNil;
    size_t next = kIndexRingNil;
  };

  void DropFromLongest();

  Config config_;
  PacketPool pool_;
  std::vector<Bucket> buckets_;
  IndexRing rr_;  // round-robin order of non-empty buckets
  int64_t bytes_ = 0;
  int64_t packets_ = 0;
};

}  // namespace bundler

#endif  // SRC_QDISC_SFQ_H_
