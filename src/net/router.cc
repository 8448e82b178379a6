#include "src/net/router.h"

#include "src/util/check.h"

namespace bundler {

void Router::AddSiteRoute(SiteId site, PacketHandler* next) {
  BUNDLER_CHECK(next != nullptr && site < routes_.size());
  routes_[site].site = next;
}

void Router::AddCtlRoute(SiteId site, PacketHandler* next) {
  BUNDLER_CHECK(next != nullptr && site < routes_.size());
  routes_[site].ctl = next;
}

void Router::HandlePacket(Packet pkt) {
  const SiteId site = SiteOf(pkt.key.dst);
  if (site < routes_.size()) {
    const Routes& r = routes_[site];
    PacketHandler* next =
        r.ctl != nullptr && pkt.key.dst == CtlAddress(site) ? r.ctl : r.site;
    if (next != nullptr) {
      next->HandlePacket(std::move(pkt));
      return;
    }
  }
  ++unroutable_;
}

}  // namespace bundler
