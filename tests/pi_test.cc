// Tests for the pass-through mode PI controller (§5.1): convergence of the
// sendbox queue to the 10 ms target, stability, and clamping.
#include <gtest/gtest.h>

#include "src/bundler/pi_controller.h"

namespace bundler {
namespace {

// Closed-loop plant: packets arrive at `arrival_mbps`; the PI-set rate drains
// the queue. Returns the final queue delay (ms at the arrival rate reference)
// after `seconds` of 10 ms control steps.
double RunPlant(PiController& pi, double arrival_mbps, double seconds,
                double initial_queue_bytes = 0) {
  const TimeDelta tick = TimeDelta::Millis(10);
  TimePoint now;
  double queue = initial_queue_bytes;
  pi.Reset(Rate::Mbps(arrival_mbps), static_cast<int64_t>(queue), now);
  int steps = static_cast<int>(seconds / tick.ToSeconds());
  for (int i = 0; i < steps; ++i) {
    now += tick;
    double in = arrival_mbps * 1e6 / 8 * tick.ToSeconds();
    double out = pi.rate().BytesPerSecond() * tick.ToSeconds();
    queue = std::max(0.0, queue + in - out);
    pi.Update(static_cast<int64_t>(queue), now);
  }
  // Express as delay at the drain rate, matching TargetQueueBytes's basis.
  return queue / pi.rate().BytesPerSecond() * 1000;
}

TEST(PiControllerTest, ConvergesToTargetFromEmpty) {
  PiController pi;
  double delay_ms = RunPlant(pi, 48.0, 20.0, 0);
  EXPECT_NEAR(delay_ms, 10.0, 3.0);
}

TEST(PiControllerTest, ConvergesToTargetFromLargeBacklog) {
  PiController pi;
  // Start with 1 MB queued (~167 ms at 48 Mbit/s).
  double delay_ms = RunPlant(pi, 48.0, 30.0, 1e6);
  EXPECT_NEAR(delay_ms, 10.0, 3.0);
}

TEST(PiControllerTest, TracksArrivalRateAtConvergence) {
  PiController pi;
  RunPlant(pi, 48.0, 20.0, 0);
  // Once the queue sits at target, drain rate ~= arrival rate.
  EXPECT_NEAR(pi.rate().Mbps(), 48.0, 5.0);
}

TEST(PiControllerTest, TargetQueueBytesMatchesDelayTimesRate) {
  PiController pi;
  TimePoint now;
  pi.Reset(Rate::Mbps(80), 0, now);
  // kTargetQueueDelay (10 ms) at 80 Mbit/s = 100 kB.
  EXPECT_NEAR(static_cast<double>(pi.TargetQueueBytes()),
              Rate::Mbps(80).BytesPerSecond() * PiController::kTargetQueueDelay.ToSeconds(),
              1e3);
}

TEST(PiControllerTest, RateRisesWhenQueueAboveTarget) {
  PiController pi;
  TimePoint now;
  pi.Reset(Rate::Mbps(48), 0, now);
  Rate before = pi.rate();
  now += TimeDelta::Millis(10);
  // Queue way above target, and growing.
  Rate after = pi.Update(2'000'000, now);
  EXPECT_GT(after.bps(), before.bps());
}

TEST(PiControllerTest, RateFallsWhenQueueEmpty) {
  PiController pi;
  TimePoint now;
  pi.Reset(Rate::Mbps(48), 600'000, now);
  now += TimeDelta::Millis(10);
  Rate r1 = pi.Update(0, now);
  now += TimeDelta::Millis(10);
  Rate r2 = pi.Update(0, now);
  EXPECT_LT(r2.bps(), r1.bps());
}

TEST(PiControllerTest, ClampsToConfiguredBounds) {
  PiController pi;
  TimePoint now;
  pi.Reset(Rate::Mbps(50), 0, now);
  // Persistently empty queue drives the rate to the floor, never below. It
  // sheds ~0.1% per 10 ms step, so 100 s reaches kMinRate from 50 Mbit/s.
  for (int i = 0; i < 10000; ++i) {
    now += TimeDelta::Millis(10);
    pi.Update(0, now);
  }
  EXPECT_DOUBLE_EQ(pi.rate().bps(), PiController::kMinRate.bps());
  // A huge persistent queue drives it to the cap, never above.
  for (int i = 0; i < 2000; ++i) {
    now += TimeDelta::Millis(10);
    pi.Update(100'000'000, now);
  }
  EXPECT_DOUBLE_EQ(pi.rate().bps(), PiController::kMaxRate.bps());
}

TEST(PiControllerTest, StableAcrossLoadLevels) {
  // No oscillation blow-ups at any arrival rate (alpha = beta = 10, §5.1).
  for (double mbps : {6.0, 12.0, 24.0, 48.0, 96.0}) {
    PiController pi;
    double delay_ms = RunPlant(pi, mbps, 25.0, 0);
    EXPECT_NEAR(delay_ms, 10.0, 4.0) << mbps << " Mbps";
  }
}

TEST(PiControllerTest, ZeroElapsedTimeIsNoop) {
  PiController pi;
  TimePoint now;
  pi.Reset(Rate::Mbps(48), 0, now);
  Rate before = pi.rate();
  Rate after = pi.Update(500'000, now);  // same timestamp
  EXPECT_DOUBLE_EQ(after.bps(), before.bps());
}

}  // namespace
}  // namespace bundler
