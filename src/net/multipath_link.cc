#include "src/net/multipath_link.h"

#include <utility>

#include "src/qdisc/fifo.h"
#include "src/util/check.h"
#include "src/util/fnv.h"

namespace bundler {

MultipathLink::MultipathLink(Simulator* sim, std::string name,
                             const std::vector<PathSpec>& paths, PacketHandler* dst)
    : name_(std::move(name)) {
  BUNDLER_CHECK(!paths.empty());
  for (size_t i = 0; i < paths.size(); ++i) {
    // Construction-time only: paths are built once per topology.
    auto queue = std::make_unique<DropTailFifo>(paths[i].queue_limit_bytes);  // lint:allow(datapath-heap-alloc)
    paths_.push_back(std::make_unique<Link>(sim, name_ + ".path" + std::to_string(i),  // lint:allow(datapath-heap-alloc)
                                            paths[i].rate, paths[i].prop_delay,
                                            std::move(queue), dst));
  }
}

size_t MultipathLink::PathIndexFor(const Packet& pkt) const {
  return Mix64(FlowKeyHash(pkt.key)) % paths_.size();
}

void MultipathLink::HandlePacket(Packet pkt) {
  size_t idx = PathIndexFor(pkt);
  paths_[idx]->HandlePacket(std::move(pkt));
}

}  // namespace bundler
