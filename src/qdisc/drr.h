// Deficit Round Robin with exact per-flow queues (Shreedhar & Varghese).
// Used as the "In-Network" fair-queueing bottleneck baseline of §7.2 — the
// configuration the paper argues is not deployable but bounds what Bundler
// can achieve. Flow queues share one PacketPool and the flow -> slot demux is
// an open-addressing FlatMap64, so a warm DRR allocates nothing per packet or
// per new flow.
#ifndef SRC_QDISC_DRR_H_
#define SRC_QDISC_DRR_H_

#include <cstdint>
#include <vector>

#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"
#include "src/util/flat_map.h"
#include "src/util/index_ring.h"

namespace bundler {

class Drr : public Qdisc {
 public:
  static constexpr int64_t kQuantumBytes = 1514;

  explicit Drr(int64_t limit_bytes);

  const Packet* Peek() const override;
  int64_t bytes() const override { return bytes_; }
  int64_t packets() const override { return packets_; }
  const char* name() const override { return "drr"; }

  size_t active_flows() const { return rr_.size(); }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override;
  std::optional<Packet> DoDequeue(TimePoint now) override;

  // Flow queues link into an intrusive round-robin ring
  // (src/util/index_ring.h); slot addresses are not held across Enqueue (the
  // only growth point of slots_).
  struct FlowQueue {
    PacketPool::Queue queue;
    uint64_t flow = 0;  // FlowHash of the flow holding this slot
    int64_t bytes = 0;
    int64_t deficit = 0;
    bool active = false;
    size_t prev = kIndexRingNil;
    size_t next = kIndexRingNil;
  };

  static uint64_t FlowHash(const Packet& pkt);
  void DropFromLongest();
  void ReleaseSlot(size_t slot);

  int64_t limit_bytes_;
  PacketPool pool_;
  FlatMap64<size_t> flow_to_slot_;  // FlowHash -> slot + 1 (0 = absent)
  std::vector<FlowQueue> slots_;
  std::vector<size_t> free_slots_;
  IndexRing rr_;
  int64_t bytes_ = 0;
  int64_t packets_ = 0;
};

}  // namespace bundler

#endif  // SRC_QDISC_DRR_H_
