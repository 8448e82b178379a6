// Topology partitioning for conservative parallel DES (src/sim/shard_runner.h).
//
// A partition assigns every NetBuilder node to a group; each group becomes one
// shard owning its own Simulator. The partition is *intrinsic* to the declared
// graph — PartitionTopology derives it from co-location constraints alone, so
// the number of groups G never depends on how many worker threads later
// execute them. That is what makes a run byte-identical at every worker count
// by construction: the same G shards run the same per-shard event sequences,
// only their interleaving onto threads changes.
//
// Co-location rules (edges that must NOT cross groups, because the components
// on their two sides call each other synchronously or share zero-lookahead
// timing):
//   - wires: zero-cost synchronous handoff;
//   - plain links with zero propagation delay: a cross-shard link's delay is
//     the peer's conservative lookahead, and zero lookahead cannot guarantee
//     progress;
//   - multipath edges: one component spanning both endpoints;
//   - per bundle: src site, dst site and both endpoints of the ingress edge.
//     The receivebox hands its feedback straight to the dst site's egress
//     edge, so it shares the dst site's shard; the rule keeps the sendbox
//     there too. The feedback itself is a packet: on its way back into the
//     src site it may cross shards like any other.
// Everything else — plain links with positive delay — may become a shard
// boundary; the link's propagation delay is the receiving shard's lookahead.
#ifndef SRC_TOPO_PARTITION_H_
#define SRC_TOPO_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/topo/net_builder.h"

namespace bundler {

struct PartitionPlan {
  int num_groups = 0;
  // Builder node id -> group in [0, num_groups). Groups are numbered by the
  // lowest node id they contain, so the plan is deterministic.
  std::vector<int> group_of_node;

  // Every plain link whose endpoints land in different groups.
  struct Boundary {
    NetBuilder::EdgeId edge = -1;
    int src_group = 0;
    int dst_group = 0;
    int64_t lookahead_ns = 0;  // the link's propagation delay
  };
  std::vector<Boundary> boundaries;

  int group_of(NetBuilder::NodeId n) const {
    return group_of_node[static_cast<size_t>(n)];
  }
};

// Derives the finest partition consistent with the co-location rules above
// (union-find over the declared graph). Always succeeds on a valid graph.
[[nodiscard]] PartitionPlan PartitionTopology(const NetBuilder& builder);

// Validates a caller-supplied assignment against the same rules and returns
// the corresponding plan. CHECK-fails with a readable message on an empty
// group, a cross-group wire/multipath/zero-delay link, or a bundle spanning
// groups. Exists so tests can probe the validation (death tests) and so
// presets can pin hand-made partitions.
[[nodiscard]] PartitionPlan PartitionFromAssignment(
    const NetBuilder& builder, const std::vector<int>& group_of_node);

}  // namespace bundler

#endif  // SRC_TOPO_PARTITION_H_
