// Two-tier leaf/spine ("fat tree") preset over the composable NetBuilder.
//
// Unlike the paper's dumbbell — whose Bundler control loop welds the whole
// graph into one indivisible shard (see topo/partition.h) — a leaf/spine
// fabric decomposes naturally for conservative parallel DES: every leaf
// router plus its directly-attached host sites forms one shard (access links
// have zero delay, so they must be co-located), each spine router is its own
// shard, and every leaf<->spine fabric link is a shard boundary whose
// propagation delay becomes the peer shard's lookahead. A fabric of L leaves
// partitions into L + 2 shards.
//
//        spine0            spine1
//      |   |   |         |   |   |     <- fabric links (delay > 0: boundaries)
//   leaf0   leaf1   ...   leaf(L-1)
//    |  |    |  |          |  |
//   h0  h1  h0  h1   ...  h0  h1      <- access links (zero delay: co-located)
//
// Routing is the builder's per-router BFS with declaration-order tie-breaks;
// leaf l declares its uplink to spine (l % 2) first, so alternate leaves
// prefer alternate spines and inter-leaf traffic spreads across the fabric
// deterministically.
#ifndef SRC_TOPO_FAT_TREE_H_
#define SRC_TOPO_FAT_TREE_H_

#include <vector>

#include "src/topo/net_builder.h"

namespace bundler {

struct FatTreeConfig {
  int num_leaves = 4;      // >= 2
  int hosts_per_leaf = 2;  // >= 1

  Rate fabric_rate = Rate::Mbps(400);
  TimeDelta fabric_delay = TimeDelta::Millis(2);  // per fabric link (lookahead)
  int64_t fabric_buffer_bytes = 512 * 1024;

  Rate access_rate = Rate::Gbps(1);  // host <-> leaf, zero delay
};

// Site of host `h` on leaf `l`.
SiteId FatTreeSite(int leaf, int host);

// Builder-id handles into the fat-tree graph.
struct FatTreeGraph {
  std::vector<NetBuilder::NodeId> spines;               // size 2
  std::vector<NetBuilder::NodeId> leaves;               // size num_leaves
  std::vector<std::vector<NetBuilder::NodeId>> hosts;   // [leaf][host]
  std::vector<std::vector<NetBuilder::EdgeId>> uplinks; // [leaf][spine], decl order
};

// Declares the leaf/spine graph on a NetBuilder. `graph` (optional) receives
// the ids of the pieces callers typically touch.
NetBuilder FatTreeBuilder(const FatTreeConfig& config, FatTreeGraph* graph = nullptr);

}  // namespace bundler

#endif  // SRC_TOPO_FAT_TREE_H_
