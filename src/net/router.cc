#include "src/net/router.h"

#include "src/util/check.h"

namespace bundler {

void Router::AddSiteRoute(SiteId site, PacketHandler* next) {
  BUNDLER_CHECK(next != nullptr && site < routes_.size());
  routes_[site] = next;
}

void Router::HandlePacket(Packet pkt) {
  const SiteId site = SiteOf(pkt.key.dst);
  PacketHandler* next = site < routes_.size() ? routes_[site] : nullptr;
  if (next == nullptr) {
    ++unroutable_;
    return;
  }
  next->HandlePacket(std::move(pkt));
}

}  // namespace bundler
