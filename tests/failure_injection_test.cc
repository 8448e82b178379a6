// Failure injection for the Bundler control loop: the paper's design claims
// robustness to lost feedback and lost epoch-size updates, and that a failed
// Bundler leaves connections unaffected (§4.5, §6). These tests break the
// out-of-band channel in targeted ways and assert the data plane keeps
// delivering.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/app/workload.h"
#include "src/topo/dumbbell.h"

namespace bundler {
namespace {

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

// Sits between the receivebox and the reverse path; drops selected control
// packets and forwards the rest unchanged (same latency as before).
class ControlDropper : public PacketHandler {
 public:
  ControlDropper(PacketHandler* next, std::function<bool(const Packet&)> drop)
      : next_(next), drop_(std::move(drop)) {}

  void HandlePacket(Packet pkt) override {
    if (drop_ && drop_(pkt)) {
      ++dropped_;
      return;
    }
    next_->HandlePacket(std::move(pkt));
  }

  uint64_t dropped() const { return dropped_; }

 private:
  PacketHandler* next_;
  std::function<bool(const Packet&)> drop_;
  uint64_t dropped_ = 0;
};

struct FaultyRun {
  uint64_t control_dropped = 0;
  int64_t delivered_bytes = 0;
  int64_t sendbox_queue_bytes = 0;
  uint64_t feedback_matched = 0;
};

FaultyRun RunWithControlFault(std::function<bool(const Packet&)> drop, double seconds) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(40);
  Dumbbell net(&sim, cfg);

  ControlDropper dropper(net.reverse_path(), std::move(drop));
  net.receivebox()->set_reverse(&dropper);

  auto senders = StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 4,
                                HostCcType::kCubic, TimePoint::Zero());
  sim.RunUntil(Sec(seconds));

  FaultyRun r;
  r.control_dropped = dropper.dropped();
  for (auto* s : senders) {
    r.delivered_bytes += s->delivered_bytes();
  }
  r.sendbox_queue_bytes = net.sendbox()->bundle_queue_bytes(0);
  r.feedback_matched = net.controller()->measurement().feedback_matched();
  return r;
}

TEST(FailureInjectionTest, TotalFeedbackLossDoesNotStallData) {
  // Black-hole every congestion ACK: the sendbox never learns anything and
  // keeps shaping blind, but end-to-end connections must keep making
  // progress (the bundle is never required for correctness).
  FaultyRun r = RunWithControlFault(
      [](const Packet& p) { return p.type == PacketType::kBundlerFeedback; }, 20);
  EXPECT_GT(r.control_dropped, 100u);
  EXPECT_EQ(r.feedback_matched, 0u);
  EXPECT_GT(r.delivered_bytes, static_cast<int64_t>(20 * 6e6 / 8));
}

TEST(FailureInjectionTest, HalfFeedbackLossStillConverges) {
  uint64_t n = 0;
  FaultyRun r = RunWithControlFault(
      [&](const Packet& p) {
        return p.type == PacketType::kBundlerFeedback && (++n % 2 == 0);
      },
      20);
  EXPECT_GT(r.control_dropped, 50u);
  // With every other congestion ACK lost, epochs simply span two periods;
  // the loop still converges to a usable rate.
  EXPECT_GT(r.delivered_bytes, static_cast<int64_t>(0.6 * 20 * 48e6 / 8));
}

TEST(FailureInjectionTest, BundleSurvivesBurstyControlOutages) {
  // The control channel goes dark for one window out of every three.
  uint64_t n = 0;
  FaultyRun r = RunWithControlFault(
      [&](const Packet& p) {
        if (p.type != PacketType::kBundlerFeedback) {
          return false;
        }
        ++n;
        return (n / 200) % 3 == 2;
      },
      20);
  EXPECT_GT(r.control_dropped, 100u);
  EXPECT_GT(r.delivered_bytes, static_cast<int64_t>(0.5 * 20 * 48e6 / 8));
}

TEST(FailureInjectionTest, SendboxQueueBoundedUnderTotalFeedbackLoss) {
  // Even with all feedback lost the sendbox queue must stay within its
  // configured limit: the qdisc drops, the endhosts back off.
  FaultyRun r = RunWithControlFault(
      [](const Packet& p) { return p.type == PacketType::kBundlerFeedback; }, 20);
  DumbbellConfig defaults;
  EXPECT_LT(r.sendbox_queue_bytes,
            static_cast<int64_t>(defaults.sendbox.queue_limit_pkts + 1) * kMtuBytes);
}

TEST(FailureInjectionTest, FeedbackReorderingToleratedOnSinglePath) {
  // Shuffle adjacent feedback messages (emulating reverse-path jitter): the
  // measurement engine must keep matching and the multipath detector must
  // not disable the bundler (the send-gap significance guard filters these
  // micro-inversions).
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(40);
  Dumbbell net(&sim, cfg);

  // Hold back every 5th feedback packet by one neighbor: swap via a one-slot
  // buffer.
  std::unique_ptr<Packet> held;
  uint64_t n = 0;
  LambdaHandler shuffler([&](Packet p) {
    if (p.type == PacketType::kBundlerFeedback) {
      ++n;
      if (n % 5 == 0 && held == nullptr) {
        held = std::make_unique<Packet>(std::move(p));
        return;
      }
      net.reverse_path()->HandlePacket(std::move(p));
      if (held != nullptr) {
        net.reverse_path()->HandlePacket(std::move(*held));
        held.reset();
      }
      return;
    }
    net.reverse_path()->HandlePacket(std::move(p));
  });
  net.receivebox()->set_reverse(&shuffler);

  auto senders = StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 4,
                                HostCcType::kCubic, TimePoint::Zero());
  sim.RunUntil(Sec(20));
  EXPECT_EQ(net.controller()->mode(), BundlerMode::kDelayControl);
  int64_t total = 0;
  for (auto* s : senders) {
    total += s->delivered_bytes();
  }
  EXPECT_GT(total, static_cast<int64_t>(0.6 * 20 * 48e6 / 8));
}

TEST(FailureInjectionTest, MeasurementSurvivesEpochDisagreement) {
  // Freeze the receivebox's epoch size at its initial value (as if every
  // epoch-size update were lost). Power-of-two nesting (§4.5) keeps one
  // side's boundaries a subset of the other's, so measurement continues.
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(48);
  cfg.rtt = TimeDelta::Millis(40);
  Dumbbell net(&sim, cfg);
  ControlDropper dropper(net.reverse_path(), nullptr);
  net.receivebox()->set_reverse(&dropper);
  net.receivebox()->FreezeEpochSizeForTest();

  auto senders = StartBulkFlows(&sim, net.flows(), net.server(), net.client(), 4,
                                HostCcType::kCubic, TimePoint::Zero());
  sim.RunUntil(Sec(20));
  EXPECT_GT(net.controller()->measurement().feedback_matched(), 200u);
  int64_t total = 0;
  for (auto* s : senders) {
    total += s->delivered_bytes();
  }
  EXPECT_GT(total, static_cast<int64_t>(0.6 * 20 * 48e6 / 8));
}

}  // namespace
}  // namespace bundler
