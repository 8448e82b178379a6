#include "src/net/router.h"

#include "src/util/check.h"

namespace bundler {

void Router::AddAddressRoute(Address addr, PacketHandler* next) {
  BUNDLER_CHECK(next != nullptr);
  by_address_[addr] = next;
}

void Router::AddSiteRoute(SiteId site, PacketHandler* next) {
  BUNDLER_CHECK(next != nullptr);
  by_site_[site] = next;
}

void Router::HandlePacket(Packet pkt) {
  auto addr_it = by_address_.find(pkt.key.dst);
  if (addr_it != by_address_.end()) {
    addr_it->second->HandlePacket(std::move(pkt));
    return;
  }
  auto site_it = by_site_.find(SiteOf(pkt.key.dst));
  if (site_it != by_site_.end()) {
    site_it->second->HandlePacket(std::move(pkt));
    return;
  }
  ++unroutable_;
}

}  // namespace bundler
