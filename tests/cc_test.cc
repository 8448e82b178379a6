// Unit tests for host- and bundle-side congestion control algorithms: window
// laws, loss reactions, BBR phase progression, Copa/BasicDelay rate behavior.
#include <gtest/gtest.h>

#include <memory>

#include "src/cc/basic_delay.h"
#include "src/cc/bbr.h"
#include "src/cc/cc.h"
#include "src/cc/const_cwnd.h"
#include "src/cc/copa.h"
#include "src/cc/cubic.h"
#include "src/cc/new_reno.h"

namespace bundler {
namespace {

AckSample Ack(TimePoint now, TimeDelta rtt, int pkts = 1, double inflight = 10,
              Rate delivery = Rate::Mbps(10)) {
  AckSample s;
  s.now = now;
  s.acked_pkts = pkts;
  s.rtt = rtt;
  s.rtt_valid = true;
  s.inflight_pkts = inflight;
  s.delivery_rate = delivery;
  return s;
}

// A controller built in place by the factory flows use, destroyed with its
// owner the way a flow destroys its own.
class InPlaceHostCc {
 public:
  explicit InPlaceHostCc(HostCcType type) : cc_(MakeHostCcInPlace(&storage_, type)) {}
  ~InPlaceHostCc() { cc_->~HostCc(); }
  InPlaceHostCc(const InPlaceHostCc&) = delete;
  InPlaceHostCc& operator=(const InPlaceHostCc&) = delete;

  HostCc* operator->() const { return cc_; }

 private:
  HostCcStorage storage_;
  HostCc* cc_;
};

BundleMeasurement Meas(TimePoint now, TimeDelta rtt, TimeDelta min_rtt, Rate send,
                       Rate recv, int64_t acked = 100'000) {
  BundleMeasurement m;
  m.now = now;
  m.rtt = rtt;
  m.min_rtt = min_rtt;
  m.send_rate = send;
  m.recv_rate = recv;
  m.acked_bytes = acked;
  m.fresh = true;
  return m;
}

// --- NewReno ---

TEST(NewRenoTest, SlowStartDoublesPerRtt) {
  NewReno cc;
  TimePoint t;
  // One ACK per acked packet: cwnd grows by 1 per ACK in slow start.
  double before = cc.CwndPkts();
  for (int i = 0; i < 10; ++i) {
    cc.OnAck(Ack(t, TimeDelta::Millis(50)));
  }
  EXPECT_DOUBLE_EQ(cc.CwndPkts(), before + 10);
}

TEST(NewRenoTest, CongestionAvoidanceGrowsByOnePerRtt) {
  NewReno cc;
  TimePoint t;
  LossSample loss;
  loss.now = t;
  loss.inflight_pkts = cc.CwndPkts();
  cc.OnLoss(loss);  // leaves slow start
  double w = cc.CwndPkts();
  // cwnd ACKs should grow cwnd by ~1.
  int acks = static_cast<int>(w);
  for (int i = 0; i < acks; ++i) {
    cc.OnAck(Ack(t, TimeDelta::Millis(50)));
  }
  EXPECT_NEAR(cc.CwndPkts(), w + 1.0, 0.2);
}

TEST(NewRenoTest, LossHalvesWindow) {
  NewReno cc;
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    cc.OnAck(Ack(t, TimeDelta::Millis(50)));
  }
  double before = cc.CwndPkts();
  LossSample loss;
  loss.now = t;
  loss.inflight_pkts = before;
  cc.OnLoss(loss);
  EXPECT_NEAR(cc.CwndPkts(), before / 2, 1.0);
  EXPECT_NEAR(cc.ssthresh(), before / 2, 1.0);
}

TEST(NewRenoTest, TimeoutCollapsesToMinimum) {
  NewReno cc;
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    cc.OnAck(Ack(t, TimeDelta::Millis(50)));
  }
  LossSample loss;
  loss.now = t;
  loss.is_timeout = true;
  loss.inflight_pkts = cc.CwndPkts();
  cc.OnLoss(loss);
  EXPECT_LE(cc.CwndPkts(), 4.0);
}

// --- Cubic ---

TEST(CubicTest, SlowStartThenBackoff) {
  Cubic cc;
  TimePoint t;
  for (int i = 0; i < 50; ++i) {
    cc.OnAck(Ack(t, TimeDelta::Millis(50)));
  }
  double before = cc.CwndPkts();
  EXPECT_GE(before, 50.0);
  LossSample loss;
  loss.now = t;
  loss.inflight_pkts = before;
  cc.OnLoss(loss);
  // Multiplicative decrease by beta = 0.7.
  EXPECT_NEAR(cc.CwndPkts(), before * 0.7, 1.0);
}

TEST(CubicTest, ConcaveRecoveryTowardWmax) {
  Cubic cc;
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    cc.OnAck(Ack(t, TimeDelta::Millis(50)));
  }
  double w_max = cc.CwndPkts();
  LossSample loss;
  loss.now = t;
  loss.inflight_pkts = w_max;
  cc.OnLoss(loss);

  // Feed ACKs over simulated time; cubic should approach w_max but grow
  // slowly near it (concave region).
  TimePoint now = t;
  double prev = cc.CwndPkts();
  double max_step = 0;
  for (int rtt = 0; rtt < 100; ++rtt) {
    now += TimeDelta::Millis(50);
    for (int i = 0; i < static_cast<int>(cc.CwndPkts()); ++i) {
      cc.OnAck(Ack(now, TimeDelta::Millis(50)));
    }
    max_step = std::max(max_step, cc.CwndPkts() - prev);
    prev = cc.CwndPkts();
    if (cc.CwndPkts() >= w_max) {
      break;
    }
  }
  EXPECT_GE(cc.CwndPkts(), w_max * 0.95);
}

TEST(CubicTest, WindowNeverBelowTwo) {
  Cubic cc;
  TimePoint t;
  for (int i = 0; i < 20; ++i) {
    LossSample loss;
    loss.now = t;
    loss.is_timeout = true;
    loss.inflight_pkts = cc.CwndPkts();
    cc.OnLoss(loss);
    t += TimeDelta::Millis(10);
  }
  EXPECT_GE(cc.CwndPkts(), 1.0);
}

// --- BBR host ---

TEST(BbrHostTest, StartupExitsOnBandwidthPlateau) {
  BbrHost cc;
  TimePoint now;
  // Constant delivery rate: after ~3 rounds of no bandwidth growth, BBR
  // should leave startup, which shows as the pacing gain dropping and cwnd
  // settling near 2 * BDP.
  for (int i = 0; i < 400; ++i) {
    now += TimeDelta::Millis(10);
    cc.OnAck(Ack(now, TimeDelta::Millis(50), 1, 20, Rate::Mbps(48)));
  }
  // BDP at 48 Mbps, 50 ms = 300 kB ~ 207 pkts. cwnd gain 2 -> ~414.
  EXPECT_GT(cc.CwndPkts(), 100.0);
  EXPECT_LT(cc.CwndPkts(), 1000.0);
  EXPECT_GT(cc.PacingRate().Mbps(), 24.0);
  EXPECT_LT(cc.PacingRate().Mbps(), 96.0);
}

TEST(BbrCoreTest, PhaseProgression) {
  BbrCore core(Rate::Mbps(1));
  TimePoint now;
  EXPECT_EQ(core.phase(), BbrCore::Phase::kStartup);
  for (int i = 0; i < 1000 && core.phase() == BbrCore::Phase::kStartup; ++i) {
    now += TimeDelta::Millis(10);
    core.OnSample(now, Rate::Mbps(48), TimeDelta::Millis(50), 20);
  }
  EXPECT_NE(core.phase(), BbrCore::Phase::kStartup);
  // Eventually cycles through to ProbeBW.
  for (int i = 0; i < 1000 && core.phase() != BbrCore::Phase::kProbeBw; ++i) {
    now += TimeDelta::Millis(10);
    core.OnSample(now, Rate::Mbps(48), TimeDelta::Millis(50), 20);
  }
  EXPECT_EQ(core.phase(), BbrCore::Phase::kProbeBw);
  EXPECT_NEAR(core.btl_bw().Mbps(), 48.0, 1.0);
  EXPECT_NEAR(core.rt_prop().ToMillis(), 50.0, 1.0);
}

TEST(BbrCoreTest, ResetClearsModel) {
  BbrCore core(Rate::Mbps(1));
  TimePoint now;
  for (int i = 0; i < 500; ++i) {
    now += TimeDelta::Millis(10);
    core.OnSample(now, Rate::Mbps(48), TimeDelta::Millis(50), 20);
  }
  core.Reset(now, Rate::Mbps(2));
  EXPECT_EQ(core.phase(), BbrCore::Phase::kStartup);
}

// --- ConstCwnd ---

TEST(ConstCwndTest, NeverChanges) {
  ConstCwnd cc;
  TimePoint t;
  cc.OnAck(Ack(t, TimeDelta::Millis(1)));
  LossSample loss;
  loss.now = t;
  loss.is_timeout = true;
  cc.OnLoss(loss);
  EXPECT_DOUBLE_EQ(cc.CwndPkts(), ConstCwnd::kCwndPkts);
}

// --- Copa (bundle) ---

TEST(CopaTest, SlowStartUntilQueueBuilds) {
  Copa copa(Rate::Mbps(12));
  TimePoint now;
  // No queueing delay (rtt == min_rtt): Copa should ramp up.
  Rate first = copa.TargetRate();
  for (int i = 0; i < 20; ++i) {
    now += TimeDelta::Millis(50);
    copa.OnMeasurement(Meas(now, TimeDelta::Millis(50), TimeDelta::Millis(50),
                            copa.TargetRate(), copa.TargetRate()));
  }
  EXPECT_GT(copa.TargetRate().bps(), first.bps());
  EXPECT_TRUE(copa.in_slow_start());
}

TEST(CopaTest, BacksOffUnderQueueingDelay) {
  Copa copa(Rate::Mbps(48));
  TimePoint now;
  // Large standing queue: rtt 150 ms vs min 50 ms. Copa's target rate
  // (1/(delta*dq) pkts/s ~ 24 pkt/s) is far below the implied window, so the
  // window must shrink over time.
  for (int i = 0; i < 10; ++i) {
    now += TimeDelta::Millis(50);
    copa.OnMeasurement(Meas(now, TimeDelta::Millis(150), TimeDelta::Millis(50),
                            Rate::Mbps(48), Rate::Mbps(48)));
  }
  double w0 = copa.cwnd_pkts();
  for (int i = 0; i < 40; ++i) {
    now += TimeDelta::Millis(50);
    copa.OnMeasurement(Meas(now, TimeDelta::Millis(150), TimeDelta::Millis(50),
                            Rate::Mbps(48), Rate::Mbps(48)));
  }
  EXPECT_LT(copa.cwnd_pkts(), w0);
  EXPECT_FALSE(copa.in_slow_start());
}

TEST(CopaTest, ConvergesNearBottleneckOnCleanPath) {
  // Closed-loop toy model: the "network" delays by a queue that grows when
  // Copa sends above 48 Mbit/s. Copa should stabilize near the capacity.
  Copa copa(Rate::Mbps(6));
  TimePoint now;
  const double cap_bps = 48e6;
  double queue_bytes = 0;
  const TimeDelta base_rtt = TimeDelta::Millis(50);
  for (int i = 0; i < 2000; ++i) {
    TimeDelta tick = TimeDelta::Millis(10);
    now += tick;
    double in = copa.TargetRate().bps() / 8 * tick.ToSeconds();
    double out = cap_bps / 8 * tick.ToSeconds();
    queue_bytes = std::max(0.0, queue_bytes + in - out);
    TimeDelta rtt = base_rtt + TimeDelta::SecondsF(queue_bytes * 8 / cap_bps);
    Rate recv = Rate::BitsPerSec(std::min(copa.TargetRate().bps(), cap_bps));
    if (i % 5 == 0) {
      copa.OnMeasurement(Meas(now, rtt, base_rtt, copa.TargetRate(), recv));
    }
  }
  EXPECT_GT(copa.TargetRate().Mbps(), 24.0);
  EXPECT_LT(copa.TargetRate().Mbps(), 72.0);
  // Standing queue delay should be modest (Copa targets ~1/(delta*dq)).
  double queue_delay_ms = queue_bytes * 8 / cap_bps * 1000;
  EXPECT_LT(queue_delay_ms, 50.0);
}

TEST(CopaTest, ResetRestoresInitialState) {
  Copa copa(Rate::Mbps(12));
  TimePoint now;
  for (int i = 0; i < 50; ++i) {
    now += TimeDelta::Millis(50);
    copa.OnMeasurement(Meas(now, TimeDelta::Millis(150), TimeDelta::Millis(50),
                            Rate::Mbps(48), Rate::Mbps(48)));
  }
  copa.Reset(now, Rate::Zero());
  EXPECT_TRUE(copa.in_slow_start());
  EXPECT_DOUBLE_EQ(copa.velocity(), 1.0);
}

TEST(CopaTest, WarmResetSeedsWindowFromObservedRate) {
  // A cold reset reseeds the window from the configured initial rate (12
  // Mbit/s); a warm reset passes the observed rate at the mode switch, so
  // the first post-reset measurement seeds a proportionally larger window
  // and the controller does not collapse the bundle while it relearns.
  TimePoint now;
  auto first_cwnd_after = [&](Rate seed) {
    Copa copa(Rate::Mbps(12));
    copa.Reset(now, seed);
    copa.OnMeasurement(Meas(now + TimeDelta::Millis(50), TimeDelta::Millis(52),
                            TimeDelta::Millis(50), Rate::Mbps(72), Rate::Mbps(72)));
    return copa.cwnd_pkts();
  };
  double cold = first_cwnd_after(Rate::Zero());
  double warm = first_cwnd_after(Rate::Mbps(72));
  // The seed basis is 6x larger (72 vs 12 Mbit/s); the slow-start ack term
  // common to both dilutes the ratio, but the warm window must stay a
  // multiple of the cold one.
  EXPECT_GT(warm, 2.0 * cold);
}

TEST(CopaTest, IgnoresStaleMeasurements) {
  Copa copa(Rate::Mbps(12));
  TimePoint now;
  copa.OnMeasurement(Meas(now, TimeDelta::Millis(50), TimeDelta::Millis(50),
                          Rate::Mbps(12), Rate::Mbps(12)));
  Rate r = copa.TargetRate();
  BundleMeasurement stale = Meas(now, TimeDelta::Millis(50), TimeDelta::Millis(50),
                                 Rate::Mbps(12), Rate::Mbps(12));
  stale.fresh = false;
  stale.acked_bytes = 0;
  for (int i = 0; i < 10; ++i) {
    copa.OnMeasurement(stale);
  }
  EXPECT_DOUBLE_EQ(copa.TargetRate().bps(), r.bps());
}

// --- BasicDelay (bundle) ---

TEST(BasicDelayTest, TracksAvailableCapacity) {
  BasicDelay bd(Rate::Mbps(12));
  TimePoint now;
  // Receive rate caps at 96 Mbit/s with small delay error; rate should
  // approach mu.
  for (int i = 0; i < 500; ++i) {
    now += TimeDelta::Millis(10);
    Rate r = bd.TargetRate();
    Rate recv = Rate::BitsPerSec(std::min(r.bps(), 96e6));
    bd.OnMeasurement(Meas(now, TimeDelta::Millis(52), TimeDelta::Millis(50), r, recv));
  }
  EXPECT_NEAR(bd.TargetRate().Mbps(), 96.0, 15.0);
}

TEST(BasicDelayTest, ReducesRateWhenDelayAboveTarget) {
  BasicDelay bd(Rate::Mbps(96));
  TimePoint now;
  for (int i = 0; i < 10; ++i) {
    now += TimeDelta::Millis(10);
    bd.OnMeasurement(Meas(now, TimeDelta::Millis(50), TimeDelta::Millis(50),
                          Rate::Mbps(96), Rate::Mbps(96)));
  }
  // Now a large standing delay appears: 100 ms over a 50 ms floor.
  Rate before = bd.TargetRate();
  now += TimeDelta::Millis(10);
  bd.OnMeasurement(Meas(now, TimeDelta::Millis(150), TimeDelta::Millis(50),
                        Rate::Mbps(96), Rate::Mbps(96)));
  EXPECT_LT(bd.TargetRate().bps(), before.bps());
}

TEST(BasicDelayTest, DelayTargetHasFloor) {
  BasicDelay bd(Rate::Mbps(12));
  // 1/8 of min RTT, but at least 2 ms.
  EXPECT_NEAR(bd.delay_target(TimeDelta::Millis(80)).ToMillis(), 10.0, 1e-9);
  EXPECT_NEAR(bd.delay_target(TimeDelta::Millis(4)).ToMillis(), 2.0, 1e-9);
}

// --- Factories ---

TEST(FactoryTest, MakesEveryHostCc) {
  EXPECT_STREQ(InPlaceHostCc(HostCcType::kCubic)->name(), "cubic");
  EXPECT_STREQ(InPlaceHostCc(HostCcType::kNewReno)->name(), "newreno");
  EXPECT_STREQ(InPlaceHostCc(HostCcType::kBbr)->name(), "bbr");
  EXPECT_STREQ(InPlaceHostCc(HostCcType::kConstCwnd)->name(), "const_cwnd");
  EXPECT_DOUBLE_EQ(InPlaceHostCc(HostCcType::kConstCwnd)->CwndPkts(), ConstCwnd::kCwndPkts);
}

TEST(FactoryTest, MakesEveryBundleCc) {
  EXPECT_STREQ(MakeBundleCc(BundleCcType::kCopa, Rate::Mbps(1))->name(), "copa");
  EXPECT_STREQ(MakeBundleCc(BundleCcType::kBasicDelay, Rate::Mbps(1))->name(),
               "basic_delay");
  EXPECT_STREQ(MakeBundleCc(BundleCcType::kBbr, Rate::Mbps(1))->name(), "bbr");
}

TEST(FactoryTest, TypeNamesRoundTrip) {
  EXPECT_STREQ(HostCcTypeName(HostCcType::kCubic), "cubic");
  EXPECT_STREQ(HostCcTypeName(HostCcType::kBbr), "bbr");
  EXPECT_STREQ(BundleCcTypeName(BundleCcType::kCopa), "copa");
  EXPECT_STREQ(BundleCcTypeName(BundleCcType::kBasicDelay), "basic_delay");
}

// Property sweep: every bundle CC must keep its target rate positive and
// finite under a range of plausible measurement streams.
class BundleCcPropertyTest : public ::testing::TestWithParam<BundleCcType> {};

TEST_P(BundleCcPropertyTest, RateStaysPositiveAndFinite) {
  auto cc = MakeBundleCc(GetParam(), Rate::Mbps(12));
  TimePoint now;
  for (int i = 0; i < 500; ++i) {
    now += TimeDelta::Millis(10);
    TimeDelta rtt = TimeDelta::Millis(50 + (i % 7) * 20);
    Rate send = Rate::Mbps(10 + (i % 5) * 20);
    Rate recv = Rate::Mbps(10 + (i % 3) * 25);
    cc->OnMeasurement(Meas(now, rtt, TimeDelta::Millis(50), send, recv));
    EXPECT_GT(cc->TargetRate().bps(), 0.0) << "tick " << i;
    EXPECT_LT(cc->TargetRate().bps(), 1e12) << "tick " << i;
  }
}

TEST_P(BundleCcPropertyTest, ResetIsIdempotent) {
  auto cc = MakeBundleCc(GetParam(), Rate::Mbps(12));
  TimePoint now;
  for (int i = 0; i < 50; ++i) {
    now += TimeDelta::Millis(10);
    cc->OnMeasurement(Meas(now, TimeDelta::Millis(80), TimeDelta::Millis(50),
                           Rate::Mbps(20), Rate::Mbps(20)));
  }
  cc->Reset(now, Rate::Zero());
  Rate r1 = cc->TargetRate();
  cc->Reset(now, Rate::Zero());
  EXPECT_DOUBLE_EQ(cc->TargetRate().bps(), r1.bps());
}

INSTANTIATE_TEST_SUITE_P(AllBundleCcs, BundleCcPropertyTest,
                         ::testing::Values(BundleCcType::kCopa, BundleCcType::kBasicDelay,
                                           BundleCcType::kBbr),
                         [](const auto& tpi) {
                           return std::string(BundleCcTypeName(tpi.param));
                         });

// Host CC property sweep.
class HostCcPropertyTest : public ::testing::TestWithParam<HostCcType> {};

TEST_P(HostCcPropertyTest, WindowStaysPositiveUnderMixedSignals) {
  InPlaceHostCc cc(GetParam());
  TimePoint now;
  for (int i = 0; i < 1000; ++i) {
    now += TimeDelta::Millis(5);
    if (i % 97 == 13) {
      LossSample loss;
      loss.now = now;
      loss.is_timeout = (i % 194 == 13);
      loss.inflight_pkts = cc->CwndPkts();
      cc->OnLoss(loss);
    } else {
      cc->OnAck(Ack(now, TimeDelta::Millis(20 + i % 60), 1, cc->CwndPkts() / 2,
                    Rate::Mbps(5 + i % 40)));
    }
    EXPECT_GE(cc->CwndPkts(), 1.0) << "tick " << i;
    EXPECT_LT(cc->CwndPkts(), 1e7) << "tick " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllHostCcs, HostCcPropertyTest,
                         ::testing::Values(HostCcType::kCubic, HostCcType::kNewReno,
                                           HostCcType::kBbr, HostCcType::kConstCwnd),
                         [](const auto& tpi) {
                           return std::string(HostCcTypeName(tpi.param));
                         });

}  // namespace
}  // namespace bundler
