// Static router: exact-address routes take precedence (used for Bundler's
// out-of-band control addresses), then per-site routes; anything else is
// counted as unroutable.
#ifndef SRC_NET_ROUTER_H_
#define SRC_NET_ROUTER_H_

#include <string>
#include <unordered_map>

#include "src/net/node.h"

namespace bundler {

class Router : public PacketHandler {
 public:
  explicit Router(std::string name) : name_(std::move(name)) {}

  void AddAddressRoute(Address addr, PacketHandler* next);
  void AddSiteRoute(SiteId site, PacketHandler* next);

  void HandlePacket(Packet pkt) override;

  uint64_t unroutable() const { return unroutable_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::unordered_map<Address, PacketHandler*> by_address_;
  std::unordered_map<SiteId, PacketHandler*> by_site_;
  uint64_t unroutable_ = 0;
};

}  // namespace bundler

#endif  // SRC_NET_ROUTER_H_
