// Strict priority scheduling over three bands; band 0 is served first.
// §7.2 uses this to give one traffic class 65% lower median FCT. A packet's
// band is its `priority` field, clamped to the last band. Each band is a
// queue of one shared PacketPool.
#ifndef SRC_QDISC_PRIO_H_
#define SRC_QDISC_PRIO_H_

#include <array>

#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"

namespace bundler {

class StrictPrio : public Qdisc {
 public:
  static constexpr size_t kNumBands = 3;

  explicit StrictPrio(int64_t limit_bytes_per_band);

  const Packet* Peek() const override;
  int64_t bytes() const override { return pool_.bytes(); }
  int64_t packets() const override { return pool_.packets(); }
  const char* name() const override { return "strict_prio"; }

  int64_t band_bytes(size_t band) const { return bands_[band].bytes; }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override;
  std::optional<Packet> DoDequeue(TimePoint now) override;

  PacketPool pool_;
  std::array<PacketPool::Queue, kNumBands> bands_;
  int64_t limit_bytes_per_band_;
};

}  // namespace bundler

#endif  // SRC_QDISC_PRIO_H_
