// Tests for the load-balanced bottleneck (§5.2): per-flow ECMP stickiness,
// hash dispersion across path counts, and delivery through every path.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/net/multipath_link.h"
#include "src/net/node.h"
#include "src/sim/simulator.h"

namespace bundler {
namespace {

Packet PacketFor(uint16_t src_port, uint16_t dst_port, uint64_t flow_id = 1) {
  Packet p;
  p.flow_id = flow_id;
  p.key.src = MakeAddress(1, 1);
  p.key.dst = MakeAddress(2, 1);
  p.key.src_port = src_port;
  p.key.dst_port = dst_port;
  p.key.protocol = 6;
  return p;
}

std::vector<MultipathLink::PathSpec> Paths(int n) {
  std::vector<MultipathLink::PathSpec> specs;
  for (int i = 0; i < n; ++i) {
    specs.push_back({Rate::Mbps(12), TimeDelta::Millis(10), 1 << 20});
  }
  return specs;
}

TEST(MultipathLinkTest, FlowHashIsStickyPerFlow) {
  Simulator sim;
  SinkHandler sink;
  MultipathLink mp(&sim, "mp", Paths(4), &sink);
  for (uint16_t port = 1000; port < 1050; ++port) {
    Packet p = PacketFor(80, port);
    size_t first = mp.PathIndexFor(p);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(mp.PathIndexFor(p), first) << "flow must stay pinned to its path";
    }
  }
}

TEST(MultipathLinkTest, FlowHashSpreadsAcrossPaths) {
  Simulator sim;
  SinkHandler sink;
  for (int paths : {2, 4, 8}) {
    MultipathLink mp(&sim, "mp", Paths(paths), &sink);
    std::vector<int> counts(static_cast<size_t>(paths), 0);
    const int kFlows = 400;
    for (int f = 0; f < kFlows; ++f) {
      Packet p = PacketFor(80, static_cast<uint16_t>(1024 + f));
      counts[mp.PathIndexFor(p)]++;
    }
    // Every path used, and no path hogs more than 2x its fair share.
    for (int c : counts) {
      EXPECT_GT(c, 0) << paths << " paths";
      EXPECT_LT(c, 2 * kFlows / paths) << paths << " paths";
    }
  }
}

TEST(MultipathLinkTest, LockstepPortPairsStillSpread) {
  // Regression: flows whose src and dst ports advance in lockstep used to
  // collapse onto one path via an FNV-mod-4 cancellation; the Mix64
  // finalizer must break the correlation.
  Simulator sim;
  SinkHandler sink;
  MultipathLink mp(&sim, "mp", Paths(4), &sink);
  std::set<size_t> used;
  for (int f = 0; f < 24; ++f) {
    Packet p = PacketFor(static_cast<uint16_t>(1024 + f), static_cast<uint16_t>(1024 + f));
    used.insert(mp.PathIndexFor(p));
  }
  EXPECT_GE(used.size(), 3u);
}

TEST(MultipathLinkTest, DeliversThroughEveryPath) {
  Simulator sim;
  SinkHandler sink;
  MultipathLink mp(&sim, "mp", Paths(4), &sink);
  // One flow per path, picked through the balancer's own hash; 10 packets each.
  for (size_t path = 0; path < mp.num_paths(); ++path) {
    uint16_t port = 1024;
    while (mp.PathIndexFor(PacketFor(80, port)) != path) {
      ++port;
    }
    for (int i = 0; i < 10; ++i) {
      Packet p = PacketFor(80, port);
      p.size_bytes = kMtuBytes;
      mp.HandlePacket(std::move(p));
    }
  }
  sim.RunAll();
  EXPECT_EQ(sink.packets(), 40u);
  for (size_t i = 0; i < mp.num_paths(); ++i) {
    EXPECT_EQ(mp.path(i)->stats().packets_sent, 10u);
  }
}

class MultipathDispersion : public ::testing::TestWithParam<int> {};

TEST_P(MultipathDispersion, ChiSquaredWithinBound) {
  // Hash dispersion property: across many flows the per-path counts must be
  // statistically uniform (chi-squared test at a generous bound).
  const int paths = GetParam();
  Simulator sim;
  SinkHandler sink;
  MultipathLink mp(&sim, "mp", Paths(paths), &sink);
  std::vector<int> counts(static_cast<size_t>(paths), 0);
  const int kFlows = 2000;
  for (int f = 0; f < kFlows; ++f) {
    Packet p = PacketFor(static_cast<uint16_t>(f % 50000), static_cast<uint16_t>(f * 7));
    counts[mp.PathIndexFor(p)]++;
  }
  double expected = static_cast<double>(kFlows) / paths;
  double chi2 = 0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 99.9th percentile of chi-squared with (paths-1) dof is ~ paths + 3*sqrt(paths) + 10.
  EXPECT_LT(chi2, paths + 3 * std::sqrt(static_cast<double>(paths)) + 12) << paths;
}

INSTANTIATE_TEST_SUITE_P(PathCounts, MultipathDispersion,
                         ::testing::Values(2, 3, 4, 8, 16, 32));

}  // namespace
}  // namespace bundler
