// Deficit Round Robin (Shreedhar & Varghese, SIGCOMM 1995): one service loop
// under two classifiers.
//  - `DrrQueues` is the core. Its classes queue in one shared PacketPool, so
//    queue memory follows the packets held, and the backlogged ones take
//    turns in an intrusive round (src/util/index_ring.h), each sending up to
//    a byte quantum per turn. An idle class joins the round at the tail with
//    deficit 0 and leaves when its queue empties. Overflow drops the tail
//    packet of the longest class (most bytes; the first in round order wins
//    a tie), which is what bounds any one class's share of the buffer.
//  - `Sfq` (src/qdisc/sfq.h) hashes flows into a fixed table of buckets.
//  - `Drr` gives each flow a class of its own: the "In-Network" fair-queueing
//    bottleneck baseline of §7.2, the configuration the paper argues is not
//    deployable but bounds what Bundler can achieve. Its flow -> class demux
//    is an open-addressing FlatMap64 and an idle class is reused by the next
//    new flow, so a warm Drr allocates nothing per packet or per new flow.
#ifndef SRC_QDISC_DRR_H_
#define SRC_QDISC_DRR_H_

#include <cstdint>
#include <vector>

#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"
#include "src/util/flat_map.h"
#include "src/util/index_ring.h"

namespace bundler {

class DrrQueues : public Qdisc {
 public:
  static constexpr int64_t kQuantumBytes = 1514;  // bytes a class may send per round

  const Packet* Peek() const override;
  int64_t bytes() const override { return pool_.bytes(); }
  int64_t packets() const override { return pool_.packets(); }

  // Classes in the round, i.e. the backlogged ones.
  size_t active_classes() const { return round_.size(); }

 protected:
  explicit DrrQueues(size_t num_classes) : classes_(num_classes) {}

  // Appends an idle class and returns its index.
  size_t AddClass();
  // Queues `pkt` at the tail of class `c`.
  void Push(size_t c, Packet pkt);
  // Drops the tail packet of the longest class. Returns true when the victim
  // was the packet just pushed to class `pushed`.
  bool DropFromLongest(size_t pushed, TimePoint now);
  // Called when class `c` goes idle and leaves the round.
  virtual void OnIdle(size_t c) { (void)c; }

 private:
  std::optional<Packet> DoDequeue(TimePoint now) override;
  void Leave(size_t c);

  struct Class {
    PacketPool::Queue queue;
    int64_t deficit = 0;
    size_t prev = kIndexRingNil;
    size_t next = kIndexRingNil;
  };
  // SFQ keeps a table of 1,024 classes; each fits in 64 bytes.
  static_assert(sizeof(Class) <= 64);

  PacketPool pool_;
  std::vector<Class> classes_;
  IndexRing round_;
};

class Drr : public DrrQueues {
 public:
  explicit Drr(int64_t limit_bytes);

  const char* name() const override { return "drr"; }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override;
  void OnIdle(size_t c) override;

  int64_t limit_bytes_;
  FlatMap64<size_t> class_of_flow_;     // FlowKeyHash -> class + 1 (0 = absent)
  std::vector<uint64_t> flow_of_class_;  // FlowKeyHash of the flow a class holds
  std::vector<size_t> free_classes_;     // idle classes, reused first
};

}  // namespace bundler

#endif  // SRC_QDISC_DRR_H_
