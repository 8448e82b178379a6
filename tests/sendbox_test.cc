// Tests for the sendbox/receivebox pair wired through the dumbbell topology:
// the inner control loop measures the path, adapts the epoch size, shifts the
// queue to the sendbox, and forwards everything transparently.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/app/workload.h"
#include "src/bundler/epoch.h"
#include "src/metrics/queue_monitor.h"
#include "src/topo/dumbbell.h"
#include "src/topo/scenario.h"

namespace bundler {
namespace {

TEST(SendboxTest, MeasuresPathRttViaFeedback) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(96);
  cfg.rtt = TimeDelta::Millis(50);
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 1, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(10));
  ASSERT_TRUE(net.controller()->measurement().has_min_rtt());
  // Min RTT ~ propagation RTT (50 ms), within serialization noise.
  EXPECT_NEAR(net.controller()->measurement().min_rtt().ToMillis(), 50.0, 5.0);
}

TEST(SendboxTest, RateConvergesNearBottleneck) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(50);
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 4, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(30));
  // The sendbox rate should sit near the bottleneck capacity: high enough to
  // not lose throughput, low enough to keep in-network queues small.
  double rate = net.sendbox()->bundle_rate(0).Mbps();
  EXPECT_GT(rate, 0.7 * 48);
  EXPECT_LT(rate, 1.6 * 48);
  // And the bundle's goodput through the bottleneck is close to capacity.
  Rate goodput = net.bundle_rate_meter()->AverageRate(
      TimePoint::Zero() + TimeDelta::Seconds(10), TimePoint::Zero() + TimeDelta::Seconds(30));
  EXPECT_GT(goodput.Mbps(), 0.8 * 48);
}

TEST(SendboxTest, ShiftsQueueFromBottleneckToItself) {
  // The paper's core claim (Fig. 2): with Bundler, the standing queue lives
  // at the sendbox, not the bottleneck.
  auto run = [](bool bundler_on) {
    Simulator sim;
    DumbbellConfig cfg;
    cfg.bottleneck_rate = Rate::Mbps(96);
    cfg.rtt = TimeDelta::Millis(50);
    cfg.bundler_enabled = bundler_on;
    Dumbbell net(&sim, cfg);
    StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 8, HostCcType::kCubic,
                   TimePoint::Zero());
    // Sendbox queueing delay: the bundle queue at its current shaped rate,
    // sampled every control tick.
    std::unique_ptr<QdiscSampler> sendbox_queue;
    if (bundler_on) {
      SendboxManager* sb = net.sendbox();
      sendbox_queue = std::make_unique<QdiscSampler>(
          &sim, sb->egress_hierarchy().bundle_qdisc(0), TimeDelta::Millis(10),
          [sb]() { return sb->bundle_rate(0); });
    }
    sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(20));
    // Bottleneck queueing delay averaged over the steady-state tail.
    double bneck_ms = net.bottleneck_delay()->delay_ms().MeanInRange(
        TimePoint::Zero() + TimeDelta::Seconds(10),
        TimePoint::Zero() + TimeDelta::Seconds(20));
    double sendbox_ms =
        bundler_on ? sendbox_queue->delay_ms().MeanInRange(
                         TimePoint::Zero() + TimeDelta::Seconds(10),
                         TimePoint::Zero() + TimeDelta::Seconds(20))
                   : 0.0;
    return std::pair<double, double>(bneck_ms, sendbox_ms);
  };
  auto [sq_bneck, sq_sendbox] = run(false);
  auto [bd_bneck, bd_sendbox] = run(true);
  // Status quo: Cubic fills the 2-BDP droptail buffer.
  EXPECT_GT(sq_bneck, 30.0);
  // With Bundler: bottleneck queue shrinks by a large factor...
  EXPECT_LT(bd_bneck, sq_bneck / 3);
  // ...and the queue materializes at the sendbox instead.
  EXPECT_GT(bd_sendbox, bd_bneck);
  (void)sq_sendbox;
}

TEST(SendboxTest, EpochSizeAdaptsAndStaysPowerOfTwo) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(96);
  cfg.rtt = TimeDelta::Millis(50);
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 4, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(20));
  uint32_t n = net.controller()->epoch_size_pkts();
  EXPECT_TRUE((n & (n - 1)) == 0) << n;
  // At ~96 Mbit/s and 50 ms the formula gives 64 packets.
  EXPECT_GE(n, 16u);
  EXPECT_LE(n, 128u);
  // The receivebox converged to the same value (via epoch ctl messages).
  EXPECT_EQ(net.receivebox()->epoch_size_pkts(), n);
}

TEST(SendboxTest, ReceiveboxCountsAndAnswersBoundaries) {
  Simulator sim;
  DumbbellConfig cfg;
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 2, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(10));
  EXPECT_GT(net.receivebox()->bytes_received(), 10'000'000);
  EXPECT_GT(net.receivebox()->feedback_sent(), 50u);
  // Feedback actually reached the sendbox and matched records.
  EXPECT_GT(net.controller()->measurement().feedback_matched(), 50u);
}

TEST(SendboxTest, StaysInDelayControlWithoutCrossTraffic) {
  Simulator sim;
  DumbbellConfig cfg;
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 4, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(30));
  EXPECT_EQ(net.controller()->mode(), BundlerMode::kDelayControl);
  // Exactly the initial mode-log entry; no flapping.
  EXPECT_EQ(net.controller()->mode_log().size(), 1u);
}

TEST(SendboxTest, NonBundleTrafficPassesThrough) {
  // ACKs and control traffic arriving at the sendbox must be forwarded, not
  // queued in the bundle scheduler.
  Simulator sim;
  DumbbellConfig cfg;
  Dumbbell net(&sim, cfg);
  // A reverse-direction data packet (dst = our own site) must not be bundled.
  Packet stray;
  stray.type = PacketType::kData;
  stray.key.src = MakeAddress(BundleDstSite(0), 1);
  stray.key.dst = MakeAddress(BundleSrcSite(0), 1);
  stray.size_bytes = 100;
  net.sendbox()->HandlePacket(std::move(stray));
  EXPECT_EQ(net.sendbox()->egress_hierarchy().bundle_queue_pkts(0), 0);
}

TEST(SendboxTest, RateUpdatesTrackControlTicks) {
  Simulator sim;
  DumbbellConfig cfg;
  Dumbbell net(&sim, cfg);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 1, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(2));
  // 10 ms control interval -> ~200 rate updates in 2 s.
  EXPECT_NEAR(static_cast<double>(*sim.counters().Counter("sendbox.s10-s100.rate_updates")),
              200.0, 10.0);
}

TEST(SendboxTest, DetectorPulseFollowsControlInterval) {
  // The detector is fed once per control tick, so its pulse must sit on FFT
  // bin kPulseBin of that cadence: period = interval * kFftSize / kPulseBin.
  Simulator sim;
  DumbbellConfig cfg;
  cfg.sendbox.control_interval = TimeDelta::Millis(20);
  Dumbbell net(&sim, cfg);
  const TimeDelta expected =
      TimeDelta::Millis(20) * (static_cast<double>(NimbusDetector::kFftSize) /
                               static_cast<double>(NimbusDetector::kPulseBin));
  EXPECT_EQ(net.controller()->detector().pulse_period().nanos(), expected.nanos());
}

TEST(SendboxTest, DisabledBundlerIsTransparent) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bundler_enabled = false;
  Dumbbell net(&sim, cfg);
  EXPECT_EQ(net.sendbox(), nullptr);
  EXPECT_EQ(net.controller(), nullptr);
  EXPECT_EQ(net.receivebox(), nullptr);
  // Traffic still flows end to end.
  TimePoint done;
  IssueSingleRequest(&sim, net.flows(), net.server(), net.client(), 50'000,
                     HostCcType::kCubic, nullptr);
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 1, HostCcType::kCubic,
                 TimePoint::Zero());
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(5));
  EXPECT_GT(net.bundle_rate_meter()->total_bytes(), 1'000'000);
  (void)done;
}

}  // namespace
}  // namespace bundler
