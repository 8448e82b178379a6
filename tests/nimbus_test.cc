// Tests for Nimbus elasticity detection (§5.1): pulse shape and area
// neutrality, FFT plumbing, and end-to-end detection of elastic vs. inelastic
// synthetic cross traffic.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/bundler/nimbus_detector.h"
#include "src/util/fft.h"

namespace bundler {
namespace {

// The cadence every detector below is fed at: a 10 ms control tick.
constexpr TimeDelta kTick = TimeDelta::Millis(10);

TEST(FftTest, RecoversSingleTone) {
  const size_t n = 256;
  std::vector<double> signal(n);
  const double sample_rate = 100.0;  // Hz
  const size_t bin = 10;             // tone at 10 * 100/256 Hz
  for (size_t i = 0; i < n; ++i) {
    signal[i] = std::sin(2 * M_PI * bin * i / n);
  }
  auto mags = RealFftMagnitudes(signal);
  ASSERT_EQ(mags.size(), n / 2);
  size_t peak = 1;
  for (size_t k = 2; k < mags.size(); ++k) {
    if (mags[k] > mags[peak]) {
      peak = k;
    }
  }
  EXPECT_EQ(peak, bin);
  (void)sample_rate;
}

TEST(FftTest, DcComponentInBinZero) {
  std::vector<double> signal(64, 5.0);
  auto mags = RealFftMagnitudes(signal);
  EXPECT_GT(mags[0], 100.0);
  for (size_t k = 1; k < mags.size(); ++k) {
    EXPECT_NEAR(mags[k], 0.0, 1e-9);
  }
}

TEST(FftTest, LinearityOfMagnitudes) {
  const size_t n = 128;
  std::vector<double> signal(n);
  for (size_t i = 0; i < n; ++i) {
    signal[i] = std::sin(2 * M_PI * 7 * i / n);
  }
  auto mags1 = RealFftMagnitudes(signal);
  for (auto& v : signal) {
    v *= 3.0;
  }
  auto mags3 = RealFftMagnitudes(signal);
  EXPECT_NEAR(mags3[7], 3 * mags1[7], 1e-6 * mags1[7] + 1e-9);
}

TEST(NimbusPulseTest, UpPulseThenCompensation) {
  NimbusDetector det(kTick);
  const Rate mu = Rate::Mbps(96);
  const TimeDelta period = det.pulse_period();
  // First quarter: positive half-sine peaking at mu/4.
  Rate peak = det.PulseRate(TimePoint::Zero() + period * 0.125, mu);
  EXPECT_NEAR(peak.Mbps(), 96.0 / 4, 0.5);
  // Remaining three quarters: negative, peaking at -mu/12.
  Rate trough = det.PulseRate(TimePoint::Zero() + period * 0.625, mu);
  EXPECT_NEAR(trough.Mbps(), -96.0 / 12, 0.5);
}

TEST(NimbusPulseTest, ZeroNetAreaOverOnePeriod) {
  // The asymmetric sinusoid must integrate to ~zero so pulsing does not bias
  // the average rate (§5.1).
  NimbusDetector det(kTick);
  const Rate mu = Rate::Mbps(96);
  const TimeDelta period = det.pulse_period();
  const int kSteps = 20000;
  double sum_bps = 0;
  for (int i = 0; i < kSteps; ++i) {
    TimePoint t = TimePoint::Zero() + period * (static_cast<double>(i) / kSteps);
    sum_bps += det.PulseRate(t, mu).bps();
  }
  double mean_mbps = sum_bps / kSteps / 1e6;
  EXPECT_NEAR(mean_mbps, 0.0, 0.3);  // << mu/4 = 24
}

TEST(NimbusPulseTest, PeriodicAcrossPeriods) {
  NimbusDetector det(kTick);
  const Rate mu = Rate::Mbps(48);
  const TimeDelta period = det.pulse_period();
  TimePoint a = TimePoint::Zero() + period * 0.3;
  TimePoint b = a + period;
  EXPECT_NEAR(det.PulseRate(a, mu).bps(), det.PulseRate(b, mu).bps(), 1.0);
}

// Synthetic bottleneck driver with a physical queue model. Our rate is
// base + pulse. Elastic cross traffic greedily fills the capacity we leave
// free, reacting over an RTT-scale lag (like AIMD senders tracking their
// share), which is exactly the coherent response Nimbus detects. Inelastic
// cross traffic is a constant-rate paced stream. rout is our proportional
// share of the drain while the queue is busy.
void DriveDetector(NimbusDetector& det, bool elastic_cross, double mu_mbps,
                   double cross_mbps, TimeDelta how_long) {
  const TimeDelta tick = kTick;
  const double mu = mu_mbps * 1e6;
  const double kLagSecs = 0.1;  // elastic reaction time constant (~2 RTTs)
  TimePoint now;
  double our_base = mu * 0.5;
  double cross = elastic_cross ? mu - our_base : cross_mbps * 1e6;
  double queue_bits = elastic_cross ? 0.02 * mu : 0.0;  // standing queue
  const double max_queue_bits = 0.1 * mu;               // ~100 ms of buffer
  for (TimePoint end = now + how_long; now < end; now += tick) {
    double pulse = det.PulseRate(now, Rate::BitsPerSec(mu)).bps();
    double rin = std::max(1e6, our_base + pulse);
    if (elastic_cross) {
      // First-order tracking of the leftover capacity: buffer-filling flows
      // take roughly an RTT to claim freed bandwidth or back off.
      double target = std::max(0.0, mu - rin) + 0.02 * mu;  // keeps queue alive
      cross += (target - cross) * (tick.ToSeconds() / kLagSecs);
    }
    double total = rin + cross;
    queue_bits += (total - mu) * tick.ToSeconds();
    queue_bits = std::clamp(queue_bits, 0.0, max_queue_bits);
    bool busy = queue_bits > 0.0 || total >= mu;
    double rout = busy ? rin * (mu / total) : rin;
    TimeDelta qdelay = TimeDelta::SecondsF(queue_bits / mu);
    det.AddSample(now, Rate::BitsPerSec(rin), Rate::BitsPerSec(rout), qdelay,
                  TimeDelta::Millis(5));
  }
}

TEST(NimbusDetectorTest, DetectsElasticCrossTraffic) {
  NimbusDetector det(kTick);
  DriveDetector(det, /*elastic_cross=*/true, 96, 0, TimeDelta::Seconds(15));
  EXPECT_TRUE(det.IsElastic());
  EXPECT_GT(det.elasticity_metric(), 1.0);
}

TEST(NimbusDetectorTest, NoFalsePositiveWithoutCrossTraffic) {
  NimbusDetector det(kTick);
  DriveDetector(det, /*elastic_cross=*/false, 96, 0, TimeDelta::Seconds(15));
  EXPECT_FALSE(det.IsElastic());
}

TEST(NimbusDetectorTest, NoFalsePositiveWithInelasticCross) {
  NimbusDetector det(kTick);
  // A 30 Mbit/s paced stream (e.g. video) shares the link but does not react.
  DriveDetector(det, /*elastic_cross=*/false, 96, 30, TimeDelta::Seconds(15));
  EXPECT_FALSE(det.IsElastic());
}

TEST(NimbusDetectorTest, MuTracksObservedReceiveRate) {
  NimbusDetector det(kTick);
  DriveDetector(det, false, 96, 0, TimeDelta::Seconds(5));
  // We sent ~half of mu, so the mu estimate reflects peak observed rout.
  EXPECT_GT(det.mu_estimate().Mbps(), 40.0);
  EXPECT_LT(det.mu_estimate().Mbps(), 110.0);
}

TEST(NimbusDetectorTest, RecoversAfterCrossTrafficLeaves) {
  NimbusDetector det(kTick);
  DriveDetector(det, true, 96, 0, TimeDelta::Seconds(15));
  ASSERT_TRUE(det.IsElastic());
  // Cross traffic departs; detector must flip back within the FFT window.
  NimbusDetector det2 = det;  // continue from the same config
  DriveDetector(det, false, 96, 0, TimeDelta::Seconds(15));
  EXPECT_FALSE(det.IsElastic());
  (void)det2;
}

TEST(NimbusDetectorTest, ResetClearsVerdict) {
  NimbusDetector det(kTick);
  DriveDetector(det, true, 96, 0, TimeDelta::Seconds(15));
  ASSERT_TRUE(det.IsElastic());
  det.Reset();
  EXPECT_FALSE(det.IsElastic());
  EXPECT_DOUBLE_EQ(det.elasticity_metric(), 0.0);
}

// The detection must hold across bottleneck capacities.
class NimbusCapacitySweep : public ::testing::TestWithParam<double> {};

TEST_P(NimbusCapacitySweep, ElasticDetectedAtEveryCapacity) {
  NimbusDetector det(kTick);
  DriveDetector(det, true, GetParam(), 0, TimeDelta::Seconds(15));
  EXPECT_TRUE(det.IsElastic()) << GetParam() << " Mbps";
}

TEST_P(NimbusCapacitySweep, QuietPathNotElasticAtEveryCapacity) {
  NimbusDetector det(kTick);
  DriveDetector(det, false, GetParam(), 0, TimeDelta::Seconds(15));
  EXPECT_FALSE(det.IsElastic()) << GetParam() << " Mbps";
}

INSTANTIATE_TEST_SUITE_P(Capacities, NimbusCapacitySweep,
                         ::testing::Values(24.0, 48.0, 96.0, 192.0));

}  // namespace
}  // namespace bundler
