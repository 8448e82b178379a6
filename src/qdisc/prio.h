// Strict priority scheduling over a small number of bands; band 0 is served
// first. §7.2 uses this to give one traffic class 65% lower median FCT.
// The bands queue in one shared PacketPool.
#ifndef SRC_QDISC_PRIO_H_
#define SRC_QDISC_PRIO_H_

#include <vector>

#include "src/qdisc/packet_pool.h"
#include "src/qdisc/qdisc.h"
#include "src/sim/inline_function.h"

namespace bundler {

class StrictPrio : public Qdisc {
 public:
  // Inline-stored (no heap allocation when a qdisc is built).
  using Classifier = InlineFunction<size_t(const Packet&)>;

  // `classifier` maps a packet to a band in [0, num_bands); by default the
  // packet's `priority` field is used (clamped to the last band).
  StrictPrio(size_t num_bands, int64_t limit_bytes_per_band, Classifier classifier = nullptr);

  const Packet* Peek() const override;
  int64_t bytes() const override { return bytes_; }
  int64_t packets() const override { return packets_; }
  const char* name() const override { return "strict_prio"; }

  int64_t band_bytes(size_t band) const { return bands_[band].bytes; }

 private:
  bool DoEnqueue(Packet pkt, TimePoint now) override;
  std::optional<Packet> DoDequeue(TimePoint now) override;

  struct Band {
    PacketPool::Queue queue;
    int64_t bytes = 0;
  };

  PacketPool pool_;
  std::vector<Band> bands_;
  int64_t limit_bytes_per_band_;
  Classifier classifier_;
  int64_t bytes_ = 0;
  int64_t packets_ = 0;
};

}  // namespace bundler

#endif  // SRC_QDISC_PRIO_H_
