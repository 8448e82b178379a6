#include "src/topo/partition.h"

#include <algorithm>
#include <cstddef>

#include "src/util/check.h"

namespace bundler {

namespace {

// Path-compressing union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<int>(i);
    }
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) {
      // Attach the larger root id under the smaller: roots stay the lowest
      // node id of their group, which keeps group numbering deterministic.
      if (a < b) {
        parent_[static_cast<size_t>(b)] = a;
      } else {
        parent_[static_cast<size_t>(a)] = b;
      }
    }
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

PartitionPlan PartitionFromAssignment(const NetBuilder& b,
                                      const std::vector<int>& group_of_node) {
  const size_t n = b.nodes_.size();
  BUNDLER_CHECK_MSG(group_of_node.size() == n,
                    "partition assigns %zu nodes, but the graph declares %zu",
                    group_of_node.size(), n);
  int num_groups = 0;
  for (size_t i = 0; i < n; ++i) {
    BUNDLER_CHECK_MSG(group_of_node[i] >= 0, "node '%s' has negative group %d",
                      b.nodes_[i].name.c_str(), group_of_node[i]);
    num_groups = std::max(num_groups, group_of_node[i] + 1);
  }
  std::vector<size_t> group_size(static_cast<size_t>(num_groups), 0);
  for (size_t i = 0; i < n; ++i) {
    ++group_size[static_cast<size_t>(group_of_node[i])];
  }
  for (int g = 0; g < num_groups; ++g) {
    BUNDLER_CHECK_MSG(group_size[static_cast<size_t>(g)] > 0,
                      "shard %d is empty — every shard needs at least one node "
                      "(groups must be numbered densely from 0)",
                      g);
  }

  auto group = [&](NetBuilder::NodeId node) {
    return group_of_node[static_cast<size_t>(node)];
  };

  PartitionPlan plan;
  plan.num_groups = num_groups;
  plan.group_of_node = group_of_node;

  for (size_t e = 0; e < b.edges_.size(); ++e) {
    const NetBuilder::EdgeDecl& edge = b.edges_[e];
    const int gf = group(edge.from);
    const int gt = group(edge.to);
    if (gf == gt) {
      continue;
    }
    switch (edge.kind) {
      case NetBuilder::EdgeKind::kWire:
        BUNDLER_CHECK_MSG(false,
                          "wire '%s' crosses shards %d -> %d: wires are "
                          "synchronous handoffs and cannot be shard boundaries",
                          edge.name.c_str(), gf, gt);
        break;
      case NetBuilder::EdgeKind::kMultipath:
        BUNDLER_CHECK_MSG(false,
                          "multipath link '%s' crosses shards %d -> %d: a "
                          "multipath edge is one component and cannot be a "
                          "shard boundary",
                          edge.name.c_str(), gf, gt);
        break;
      case NetBuilder::EdgeKind::kLink:
        BUNDLER_CHECK_MSG(
            edge.link.delay > TimeDelta::Zero(),
            "link '%s' crosses shards %d -> %d with zero propagation delay: a "
            "cross-shard link's delay is the receiving shard's conservative "
            "lookahead, and zero lookahead cannot guarantee progress",
            edge.name.c_str(), gf, gt);
        plan.boundaries.push_back(PartitionPlan::Boundary{
            static_cast<NetBuilder::EdgeId>(e), gf, gt, edge.link.delay.nanos()});
        break;
    }
  }

  for (size_t i = 0; i < b.bundles_.size(); ++i) {
    const NetBuilder::BundleSpec& bundle = b.bundles_[i];
    const NetBuilder::EdgeDecl& ingress =
        b.edges_[static_cast<size_t>(bundle.ingress_edge)];
    const int g = group(bundle.src_site);
    const bool together = group(bundle.dst_site) == g &&
                          group(ingress.from) == g && group(ingress.to) == g;
    BUNDLER_CHECK_MSG(together,
                      "bundle %zu spans shards: its sendbox at '%s', its "
                      "receivebox on '%s' and its destination '%s' must stay "
                      "inside one shard",
                      i, b.nodes_[static_cast<size_t>(bundle.src_site)].name.c_str(),
                      ingress.name.c_str(),
                      b.nodes_[static_cast<size_t>(bundle.dst_site)].name.c_str());
  }

  return plan;
}

PartitionPlan PartitionTopology(const NetBuilder& b) {
  const size_t n = b.nodes_.size();
  BUNDLER_CHECK_MSG(n > 0, "cannot partition an empty topology");
  UnionFind uf(n);

  for (const NetBuilder::EdgeDecl& edge : b.edges_) {
    switch (edge.kind) {
      case NetBuilder::EdgeKind::kWire:
      case NetBuilder::EdgeKind::kMultipath:
        uf.Union(edge.from, edge.to);
        break;
      case NetBuilder::EdgeKind::kLink:
        if (edge.link.delay.IsZero()) {
          uf.Union(edge.from, edge.to);
        }
        break;
    }
  }
  // A bundle's two boxes and its destination share a shard (see header).
  for (const NetBuilder::BundleSpec& bundle : b.bundles_) {
    const NetBuilder::EdgeDecl& ingress =
        b.edges_[static_cast<size_t>(bundle.ingress_edge)];
    uf.Union(bundle.src_site, bundle.dst_site);
    uf.Union(bundle.src_site, ingress.from);
    uf.Union(bundle.src_site, ingress.to);
  }

  // Number groups by their lowest node id (the union-find root).
  std::vector<int> group_of_node(n, -1);
  std::vector<int> group_of_root(n, -1);
  int num_groups = 0;
  for (size_t i = 0; i < n; ++i) {
    const int root = uf.Find(static_cast<int>(i));
    if (group_of_root[static_cast<size_t>(root)] < 0) {
      group_of_root[static_cast<size_t>(root)] = num_groups++;
    }
    group_of_node[i] = group_of_root[static_cast<size_t>(root)];
  }

  // Re-validating costs one linear pass and keeps both entry points honest.
  return PartitionFromAssignment(b, group_of_node);
}

}  // namespace bundler
