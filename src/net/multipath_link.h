// Load-balanced bottleneck: N parallel sub-links, each with its own rate,
// propagation delay, and queue. Models the in-network multipathing of §5.2:
// per-flow ECMP (hash of the 5-tuple) keeps each flow pinned to one path.
#ifndef SRC_NET_MULTIPATH_LINK_H_
#define SRC_NET_MULTIPATH_LINK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/node.h"
#include "src/sim/simulator.h"
#include "src/util/rate.h"

namespace bundler {

class MultipathLink : public PacketHandler {
 public:
  struct PathSpec {
    Rate rate;
    TimeDelta prop_delay;
    int64_t queue_limit_bytes;
  };

  MultipathLink(Simulator* sim, std::string name, const std::vector<PathSpec>& paths,
                PacketHandler* dst);

  void HandlePacket(Packet pkt) override;

  size_t num_paths() const { return paths_.size(); }
  Link* path(size_t i) { return paths_[i].get(); }
  // Re-points every path's delivery handler (construction seam for builders
  // that wire destinations after all edges exist).
  void set_dst(PacketHandler* dst) {
    for (auto& path : paths_) {
      path->set_dst(dst);
    }
  }
  // Index the balancer picks for this packet (exposed for tests).
  size_t PathIndexFor(const Packet& pkt) const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Link>> paths_;
};

}  // namespace bundler

#endif  // SRC_NET_MULTIPATH_LINK_H_
