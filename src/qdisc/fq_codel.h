// FQ-CoDel (RFC 8290): DRR across hashed flow buckets with a CoDel instance
// per bucket and the new-flow priority list. Evaluated as an alternative
// sendbox policy in §7.2 (97% lower median end-to-end RTT). Every bucket
// queues in one shared PacketPool, so queue memory follows the packets held.
#ifndef SRC_QDISC_FQ_CODEL_H_
#define SRC_QDISC_FQ_CODEL_H_

#include <cstdint>
#include <vector>

#include "src/qdisc/codel.h"
#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"
#include "src/util/index_ring.h"

namespace bundler {

class FqCodel : public Qdisc {
 public:
  struct Config {
    size_t num_buckets = 1024;
    int64_t limit_packets = 10240;
    int64_t quantum_bytes = kMtuBytes;  // one full-size packet per round
    CodelParams codel;
    uint64_t perturbation = 0;
  };

  explicit FqCodel(const Config& config);

  const Packet* Peek() const override;
  int64_t bytes() const override { return bytes_; }
  int64_t packets() const override { return packets_; }
  const char* name() const override { return "fq_codel"; }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override;
  std::optional<Packet> DoDequeue(TimePoint now) override;

  // Buckets link into the new/old intrusive rings (src/util/index_ring.h):
  // RFC 8290's two service lists without a list-node allocation per flow
  // activation; each bucket's packets are a queue in the shared pool.
  struct Bucket {
    PacketPool::Queue queue;
    CodelState codel;
    int64_t bytes = 0;
    int64_t deficit = 0;
    enum class ListState { kNone, kNew, kOld } list_state = ListState::kNone;
    size_t prev = kIndexRingNil;
    size_t next = kIndexRingNil;
  };

  size_t BucketFor(const Packet& pkt) const;
  void DropFromFattest();
  std::optional<Packet> DequeueFromList(IndexRing& list, bool is_new_list, TimePoint now);

  Config config_;
  PacketPool pool_;
  std::vector<Bucket> buckets_;
  IndexRing new_flows_;
  IndexRing old_flows_;
  int64_t bytes_ = 0;
  int64_t packets_ = 0;
};

}  // namespace bundler

#endif  // SRC_QDISC_FQ_CODEL_H_
