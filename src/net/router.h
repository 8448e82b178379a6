// Static router with one route slot per site: a packet goes to its
// destination site's route, control traffic to CtlAddress(site) included. A
// site without a route, or a site id past the table, is counted as
// unroutable.
#ifndef SRC_NET_ROUTER_H_
#define SRC_NET_ROUTER_H_

#include <string>
#include <vector>

#include "src/net/node.h"

namespace bundler {

class Router : public PacketHandler {
 public:
  // Site ids 0 .. num_sites-1 can be routed.
  Router(std::string name, size_t num_sites)
      : name_(std::move(name)), routes_(num_sites) {}

  void AddSiteRoute(SiteId site, PacketHandler* next);

  void HandlePacket(Packet pkt) override;

  uint64_t unroutable() const { return unroutable_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<PacketHandler*> routes_;  // indexed by SiteId
  uint64_t unroutable_ = 0;
};

}  // namespace bundler

#endif  // SRC_NET_ROUTER_H_
