#include "src/bundler/receivebox.h"

#include <utility>

#include "src/bundler/epoch.h"
#include "src/util/check.h"

namespace bundler {

Receivebox::Receivebox(Simulator* sim, SiteId src_site, SiteId dst_site,
                       uint32_t initial_epoch_pkts, PacketHandler* forward,
                       PacketHandler* reverse)
    : sim_(sim),
      src_site_(src_site),
      dst_site_(dst_site),
      forward_(forward),
      reverse_(reverse),
      epoch_size_pkts_(initial_epoch_pkts) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(epoch_size_pkts_ != 0 &&
                (epoch_size_pkts_ & (epoch_size_pkts_ - 1)) == 0);
}

bool Receivebox::IsBundleData(const Packet& pkt) const {
  return pkt.type == PacketType::kData && SiteOf(pkt.key.src) == src_site_ &&
         SiteOf(pkt.key.dst) == dst_site_;
}

void Receivebox::HandlePacket(Packet pkt) {
  if (pkt.type == PacketType::kBundlerEpochCtl && pkt.key.dst == CtlAddress(dst_site_)) {
    uint32_t n = pkt.epoch_size_pkts;
    if (!epoch_frozen_ && n != 0 && (n & (n - 1)) == 0) {
      epoch_size_pkts_ = n;
    }
    return;  // consumed
  }
  if (IsBundleData(pkt)) {
    bytes_received_ += pkt.size_bytes;
    uint64_t hash = BoundaryHash(pkt);
    if (IsEpochBoundary(hash, epoch_size_pkts_)) {
      Packet fb;
      fb.type = PacketType::kBundlerFeedback;
      fb.size_bytes = kControlBytes;
      fb.key.src = CtlAddress(dst_site_);
      fb.key.dst = CtlAddress(src_site_);
      fb.key.protocol = 17;
      fb.boundary_hash = hash;
      fb.fb_bytes_received = bytes_received_;
      fb.fb_seq = ++feedback_sent_;
      BUNDLER_CHECK(reverse_ != nullptr);
      reverse_->HandlePacket(std::move(fb));
    }
  }
  if (forward_ != nullptr) {
    forward_->HandlePacket(std::move(pkt));
  }
}

}  // namespace bundler
