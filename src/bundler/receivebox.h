// Receivebox (§4.2, §6): a transparent middlebox at the destination site that
// (i) counts bundle bytes, (ii) identifies epoch boundary packets with the
// same header-subset hash as the sendbox and answers each with an out-of-band
// congestion ACK, and (iii) applies epoch-size updates sent by the sendbox.
// Packets are forwarded unmodified; it keeps no per-flow state. Both control
// addresses derive from the bundle's site pair: epoch updates arrive at
// CtlAddress(dst_site), and congestion ACKs go from there to the sendbox at
// CtlAddress(src_site).
#ifndef SRC_BUNDLER_RECEIVEBOX_H_
#define SRC_BUNDLER_RECEIVEBOX_H_

#include <cstdint>

#include "src/net/node.h"
#include "src/sim/simulator.h"

namespace bundler {

class Receivebox : public PacketHandler {
 public:
  // Data from `src_site` to `dst_site` forms the bundle; epochs start at
  // `initial_epoch_pkts` (a power of two) until the sendbox's first update.
  // `forward` receives every non-control packet (the site-side next hop);
  // `reverse` carries congestion ACKs back toward the sendbox.
  Receivebox(Simulator* sim, SiteId src_site, SiteId dst_site,
             uint32_t initial_epoch_pkts, PacketHandler* forward,
             PacketHandler* reverse);

  void HandlePacket(Packet pkt) override;

  uint32_t epoch_size_pkts() const { return epoch_size_pkts_; }
  int64_t bytes_received() const { return bytes_received_; }
  uint64_t feedback_sent() const { return feedback_sent_; }
  void set_reverse(PacketHandler* reverse) { reverse_ = reverse; }
  // Ignore all future epoch-size updates (emulates every update being lost;
  // failure-injection tests exercise the power-of-two nesting property).
  void FreezeEpochSizeForTest() { epoch_frozen_ = true; }

 private:
  bool IsBundleData(const Packet& pkt) const;

  Simulator* sim_;
  SiteId src_site_;
  SiteId dst_site_;
  PacketHandler* forward_;
  PacketHandler* reverse_;
  uint32_t epoch_size_pkts_;
  bool epoch_frozen_ = false;
  int64_t bytes_received_ = 0;
  uint64_t feedback_sent_ = 0;
};

}  // namespace bundler

#endif  // SRC_BUNDLER_RECEIVEBOX_H_
