// Tests for the intrinsic topology partitioner (src/topo/partition): the
// dumbbell's Bundler control loop welds it into one indivisible shard, the
// fat tree decomposes into one group per leaf plus one per spine with the
// fabric delay as boundary lookahead, and every co-location rule violation
// dies with a readable message when probed through PartitionFromAssignment.
#include <gtest/gtest.h>

#include <vector>

#include "src/topo/dumbbell.h"
#include "src/topo/fat_tree.h"
#include "src/topo/net_builder.h"
#include "src/topo/partition.h"

namespace bundler {
namespace {

NetBuilder::LinkSpec DelayedLink() {
  NetBuilder::LinkSpec spec;
  spec.delay = TimeDelta::Millis(1);
  return spec;
}

TEST(PartitionTest, DumbbellIsOneIndivisibleShard) {
  DumbbellConfig cfg;
  NetBuilder b = DumbbellBuilder(cfg);
  PartitionPlan plan = PartitionTopology(b);
  EXPECT_EQ(plan.num_groups, 1);
  EXPECT_TRUE(plan.boundaries.empty());
  for (size_t n = 0; n < b.num_nodes(); ++n) {
    EXPECT_EQ(plan.group_of(static_cast<NetBuilder::NodeId>(n)), 0);
  }
}

TEST(PartitionTest, BundlerOffDumbbellSplitsAtTheDelayedLinks) {
  // Without a bundle nothing co-locates the two sides of the bottleneck:
  // the graph cuts at the (delayed) bottleneck and reverse links into a
  // sender-side group and a receiver-side group.
  DumbbellConfig cfg;
  cfg.bundler_enabled = false;
  NetBuilder b = DumbbellBuilder(cfg);
  PartitionPlan plan = PartitionTopology(b);
  EXPECT_EQ(plan.num_groups, 2);
  EXPECT_EQ(plan.boundaries.size(), 2u);  // bottleneck + reverse
  for (const PartitionPlan::Boundary& bd : plan.boundaries) {
    EXPECT_NE(bd.src_group, bd.dst_group);
    EXPECT_GT(bd.lookahead_ns, 0);
  }
}

TEST(PartitionTest, FatTreeDecomposesIntoLeavesPlusSpines) {
  FatTreeConfig cfg;  // 4 leaves x 2 hosts over 2 spines
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);
  PartitionPlan plan = PartitionTopology(b);
  ASSERT_EQ(plan.num_groups, cfg.num_leaves + 2);

  // Spines are declared first, so their singleton groups get numbers 0 and 1
  // (groups are numbered by lowest contained node id).
  EXPECT_EQ(plan.group_of(g.spines[0]), 0);
  EXPECT_EQ(plan.group_of(g.spines[1]), 1);

  // Each leaf forms one group with its hosts (zero-delay access links force
  // co-location), distinct per leaf.
  std::vector<int> leaf_groups;
  for (int l = 0; l < cfg.num_leaves; ++l) {
    const int lg = plan.group_of(g.leaves[static_cast<size_t>(l)]);
    EXPECT_GE(lg, 2);
    for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
      EXPECT_EQ(
          plan.group_of(g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)]),
          lg);
    }
    for (int prev : leaf_groups) {
      EXPECT_NE(lg, prev);
    }
    leaf_groups.push_back(lg);
  }

  // Every fabric link (2 uplinks + 2 downlinks per leaf) is a boundary whose
  // lookahead is the fabric propagation delay.
  EXPECT_EQ(plan.boundaries.size(), static_cast<size_t>(4 * cfg.num_leaves));
  for (const PartitionPlan::Boundary& bd : plan.boundaries) {
    EXPECT_NE(bd.src_group, bd.dst_group);
    EXPECT_EQ(bd.lookahead_ns, cfg.fabric_delay.nanos());
  }
}

TEST(PartitionTest, AssignmentRoundTripsThroughValidation) {
  FatTreeConfig cfg;
  NetBuilder b = FatTreeBuilder(cfg);
  PartitionPlan derived = PartitionTopology(b);
  PartitionPlan checked = PartitionFromAssignment(b, derived.group_of_node);
  EXPECT_EQ(checked.num_groups, derived.num_groups);
  EXPECT_EQ(checked.group_of_node, derived.group_of_node);
  ASSERT_EQ(checked.boundaries.size(), derived.boundaries.size());
  for (size_t i = 0; i < checked.boundaries.size(); ++i) {
    EXPECT_EQ(checked.boundaries[i].edge, derived.boundaries[i].edge);
    EXPECT_EQ(checked.boundaries[i].lookahead_ns,
              derived.boundaries[i].lookahead_ns);
  }
}

// --- Validation death tests: each rule violation must abort with a readable
// message, never mis-build a sharded run. ---

TEST(PartitionDeathTest, WrongAssignmentSizeDies) {
  NetBuilder b;
  b.AddRouter("r0");
  b.AddRouter("r1");
  EXPECT_DEATH(PartitionFromAssignment(b, {0}), "partition assigns 1 nodes");
}

TEST(PartitionDeathTest, EmptyShardDies) {
  NetBuilder b;
  NetBuilder::NodeId r0 = b.AddRouter("r0");
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  b.AddLink(r0, r1, DelayedLink());
  // Groups 1 and 2 leave group 0 with no nodes.
  EXPECT_DEATH(PartitionFromAssignment(b, {1, 2}), "shard 0 is empty");
}

TEST(PartitionDeathTest, ZeroDelayCrossShardLinkDies) {
  NetBuilder b;
  NetBuilder::NodeId r0 = b.AddRouter("r0");
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  NetBuilder::LinkSpec zero;  // default delay is zero
  b.AddLink(r0, r1, zero, "z");
  EXPECT_DEATH(PartitionFromAssignment(b, {0, 1}), "zero propagation delay");
}

TEST(PartitionDeathTest, CrossShardWireDies) {
  NetBuilder b;
  NetBuilder::NodeId r0 = b.AddRouter("r0");
  NetBuilder::NodeId r1 = b.AddRouter("r1");
  b.AddWire(r0, r1);
  EXPECT_DEATH(PartitionFromAssignment(b, {0, 1}),
               "cannot be shard boundaries");
}

TEST(PartitionDeathTest, BundleSpanningShardsDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId z = b.AddSite("z", 11);
  NetBuilder::NodeId r = b.AddRouter("r");
  b.AddLink(a, r, DelayedLink(), "a_r");
  NetBuilder::EdgeId ingress = b.AddLink(r, z, DelayedLink(), "r_z");
  NetBuilder::BundleSpec bundle;
  bundle.src_site = a;
  bundle.dst_site = z;
  bundle.ingress_edge = ingress;
  b.AddBundle(bundle);
  EXPECT_DEATH(PartitionFromAssignment(b, {0, 1, 0}), "spans shards");
}

TEST(PartitionDeathTest, FinalHopRouterOutsideBundleShardDies) {
  NetBuilder b;
  NetBuilder::NodeId a = b.AddSite("a", 10);
  NetBuilder::NodeId z = b.AddSite("z", 11);
  NetBuilder::NodeId r = b.AddRouter("r");
  NetBuilder::NodeId back = b.AddRouter("back");
  b.AddLink(a, r, DelayedLink(), "a_r");
  NetBuilder::EdgeId ingress = b.AddLink(r, z, DelayedLink(), "r_z");
  b.AddLink(back, a, DelayedLink(), "back_a");  // final hop into the src site
  NetBuilder::BundleSpec bundle;
  bundle.src_site = a;
  bundle.dst_site = z;
  bundle.ingress_edge = ingress;
  b.AddBundle(bundle);
  EXPECT_DEATH(PartitionFromAssignment(b, {0, 0, 0, 1}),
               "must share its shard");
}

}  // namespace
}  // namespace bundler
