// Tests for the epoch-based measurement engine (§4.5, Fig. 4): RTT and rate
// derivation from congestion-ACK feedback, robustness to lost boundaries and
// lost feedback, sliding-window aggregation, and the out-of-order fraction
// that drives multipath detection (§5.2).
#include <gtest/gtest.h>

#include <vector>

#include "src/bundler/measurement.h"

namespace bundler {
namespace {

constexpr int64_t kEpochBytes = 24'000;  // 16 MTU-sized packets per epoch

// Drives the engine like a sendbox/receivebox pair on a clean path: boundary
// i is sent at t0 + i*send_gap and its feedback arrives rtt later, with the
// receive counter trailing by exactly one epoch of bytes in flight.
struct FeedbackDriver {
  MeasurementEngine* eng = nullptr;
  TimePoint t0 = TimePoint::Zero();
  TimeDelta send_gap = TimeDelta::Millis(10);
  TimeDelta rtt = TimeDelta::Millis(50);
  uint64_t next_hash = 1;

  // Sends boundary `i` and immediately delivers feedback scheduled for it.
  // Returns (send_time, feedback_time).
  std::pair<TimePoint, TimePoint> Step(int i, bool lose_boundary = false,
                                       bool lose_feedback = false) {
    TimePoint sent = t0 + send_gap * i;
    uint64_t h = next_hash++;
    int64_t bytes_sent = static_cast<int64_t>(i + 1) * kEpochBytes;
    if (!lose_boundary) {
      eng->OnBoundarySent(h, sent, bytes_sent);
    }
    TimePoint fb = sent + rtt;
    if (!lose_boundary && !lose_feedback) {
      eng->OnFeedback(h, bytes_sent, fb);
    }
    return {sent, fb};
  }
};

TEST(MeasurementTest, ComputesRttFromFeedback) {
  MeasurementEngine eng;
  FeedbackDriver d{&eng};
  for (int i = 0; i < 10; ++i) {
    d.Step(i);
  }
  EXPECT_TRUE(eng.has_min_rtt());
  EXPECT_NEAR(eng.min_rtt().ToMillis(), 50.0, 0.01);
  EXPECT_NEAR(eng.srtt().ToMillis(), 50.0, 1.0);
}

TEST(MeasurementTest, ComputesSendAndReceiveRates) {
  MeasurementEngine eng;
  FeedbackDriver d{&eng};
  TimePoint last_fb;
  for (int i = 0; i < 20; ++i) {
    last_fb = d.Step(i).second;
  }
  BundleMeasurement m = eng.Current(last_fb);
  EXPECT_TRUE(m.fresh);
  // 24 kB per 10 ms = 2.4 MB/s = 19.2 Mbit/s, both directions.
  EXPECT_NEAR(m.send_rate.Mbps(), 19.2, 0.5);
  EXPECT_NEAR(m.recv_rate.Mbps(), 19.2, 0.5);
}

TEST(MeasurementTest, FreshFlagClearsBetweenPolls) {
  MeasurementEngine eng;
  FeedbackDriver d{&eng};
  TimePoint fb = d.Step(0).second;
  d.Step(1);
  BundleMeasurement m1 = eng.Current(fb + TimeDelta::Millis(60));
  EXPECT_TRUE(m1.fresh);
  BundleMeasurement m2 = eng.Current(fb + TimeDelta::Millis(61));
  EXPECT_FALSE(m2.fresh);
}

TEST(MeasurementTest, AckedBytesAccumulateAcrossEpochs) {
  MeasurementEngine eng;
  FeedbackDriver d{&eng};
  TimePoint last_fb;
  for (int i = 0; i < 5; ++i) {
    last_fb = d.Step(i).second;
  }
  BundleMeasurement m = eng.Current(last_fb);
  // First matched epoch sets the reference; the remaining 4 contribute bytes.
  EXPECT_EQ(m.acked_bytes, 4 * kEpochBytes);
  // A second poll reports zero new bytes.
  EXPECT_EQ(eng.Current(last_fb + TimeDelta::Millis(1)).acked_bytes, 0);
}

TEST(MeasurementTest, RobustToLostBoundaryPacket) {
  // A boundary packet lost between the boxes never gets feedback; the next
  // epoch then spans a longer interval but rates stay correct.
  MeasurementEngine eng;
  FeedbackDriver d{&eng};
  TimePoint last_fb;
  for (int i = 0; i < 5; ++i) {
    last_fb = d.Step(i).second;
  }
  d.Step(5, /*lose_boundary=*/false, /*lose_feedback=*/true);
  for (int i = 6; i < 12; ++i) {
    last_fb = d.Step(i).second;
  }
  BundleMeasurement m = eng.Current(last_fb);
  EXPECT_NEAR(m.send_rate.Mbps(), 19.2, 1.0);
  EXPECT_NEAR(m.recv_rate.Mbps(), 19.2, 1.0);
  EXPECT_NEAR(eng.min_rtt().ToMillis(), 50.0, 0.01);
}

TEST(MeasurementTest, IgnoresUnknownFeedbackHashes) {
  // Epoch-size mismatch can make the receivebox sample MORE boundaries than
  // the sendbox recorded; those extra congestion ACKs must be ignored.
  MeasurementEngine eng;
  FeedbackDriver d{&eng};
  d.Step(0);
  eng.OnFeedback(/*hash=*/999999, /*bytes=*/1, d.t0 + TimeDelta::Millis(55));
  EXPECT_EQ(eng.feedback_ignored(), 1u);
  EXPECT_EQ(eng.feedback_matched(), 1u);
}

TEST(MeasurementTest, ExpiresStaleRecordsAtCapacity) {
  MeasurementEngine eng;
  TimePoint t;
  const int boundaries = static_cast<int>(MeasurementEngine::kMaxOutstanding) + 12;
  for (int i = 0; i < boundaries; ++i) {
    eng.OnBoundarySent(static_cast<uint64_t>(i + 1), t + TimeDelta::Millis(i), 1000 * i);
  }
  EXPECT_GT(eng.records_expired(), 0u);
  // Feedback for an expired record is ignored, not mismatched.
  eng.OnFeedback(1, 500, t + TimeDelta::Millis(100));
  EXPECT_EQ(eng.feedback_matched(), 0u);
}

TEST(MeasurementTest, MinRttTracksTheFloor) {
  MeasurementEngine eng;
  TimePoint t;
  // Three epochs with RTTs 80, 50, 70 ms.
  int64_t bytes = 0;
  int rtts[] = {80, 50, 70};
  for (int i = 0; i < 3; ++i) {
    bytes += kEpochBytes;
    TimePoint sent = t + TimeDelta::Millis(10 * i);
    eng.OnBoundarySent(static_cast<uint64_t>(i + 1), sent, bytes);
    eng.OnFeedback(static_cast<uint64_t>(i + 1), bytes, sent + TimeDelta::Millis(rtts[i]));
  }
  EXPECT_NEAR(eng.min_rtt().ToMillis(), 50.0, 0.01);
}

TEST(MeasurementTest, OutOfOrderFeedbackDetected) {
  MeasurementEngine eng;
  TimePoint t;
  // Two imbalanced paths: even-indexed boundaries take a 200 ms path, odd
  // ones a 100 ms path, so every adjacent pair's feedback arrives inverted
  // with a 40 ms send gap (well above the min_rtt/8 significance guard).
  // More events than kMinOooSamples, so the fraction is read, not floored.
  struct Fb {
    uint64_t hash;
    int64_t bytes;
    TimePoint at;
  };
  std::vector<Fb> feedback;
  const int boundaries = static_cast<int>(MeasurementEngine::kMinOooSamples) + 4;
  for (int i = 0; i < boundaries; ++i) {
    uint64_t h = static_cast<uint64_t>(i + 1);
    int64_t bytes = (i + 1) * kEpochBytes;
    TimePoint sent = t + TimeDelta::Millis(40 * i);
    eng.OnBoundarySent(h, sent, bytes);
    TimeDelta path_rtt = (i % 2 == 0) ? TimeDelta::Millis(200) : TimeDelta::Millis(100);
    feedback.push_back({h, bytes, sent + path_rtt});
  }
  std::sort(feedback.begin(), feedback.end(),
            [](const Fb& a, const Fb& b) { return a.at < b.at; });
  TimePoint last;
  for (const Fb& f : feedback) {
    eng.OnFeedback(f.hash, f.bytes, f.at);
    last = f.at;
  }
  double frac = eng.OutOfOrderFraction(last);
  EXPECT_GT(frac, 0.3);
}

TEST(MeasurementTest, InOrderFeedbackReadsZero) {
  MeasurementEngine eng;
  FeedbackDriver d{&eng};
  TimePoint last_fb;
  for (int i = 0; i < 30; ++i) {
    last_fb = d.Step(i).second;
  }
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(last_fb), 0.0);
}

TEST(MeasurementTest, OooFractionNeedsMinimumSamples) {
  MeasurementEngine eng;
  TimePoint t;
  // Only 4 samples, 2 out of order: below kMinOooSamples, reads 0.
  eng.OnBoundarySent(1, t, kEpochBytes);
  eng.OnBoundarySent(2, t + TimeDelta::Millis(10), 2 * kEpochBytes);
  eng.OnBoundarySent(3, t + TimeDelta::Millis(20), 3 * kEpochBytes);
  eng.OnBoundarySent(4, t + TimeDelta::Millis(30), 4 * kEpochBytes);
  TimePoint fb = t + TimeDelta::Millis(100);
  eng.OnFeedback(2, 2 * kEpochBytes, fb);
  eng.OnFeedback(1, kEpochBytes, fb + TimeDelta::Millis(1));
  eng.OnFeedback(4, 4 * kEpochBytes, fb + TimeDelta::Millis(2));
  eng.OnFeedback(3, 3 * kEpochBytes, fb + TimeDelta::Millis(3));
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(fb + TimeDelta::Millis(4)), 0.0);
}

TEST(MeasurementTest, OooWindowForgetsOldImbalance) {
  MeasurementEngine eng;
  TimePoint t;
  // Burst of out-of-order feedback at t=0 (kMinOooSamples events), pair
  // members sent 40 ms apart so the inversions clear the significance guard.
  const int events = static_cast<int>(MeasurementEngine::kMinOooSamples);
  for (int i = 0; i < events; i += 2) {
    uint64_t h1 = static_cast<uint64_t>(i + 1), h2 = static_cast<uint64_t>(i + 2);
    eng.OnBoundarySent(h1, t + TimeDelta::Millis(60 * i), (i + 1) * kEpochBytes);
    eng.OnBoundarySent(h2, t + TimeDelta::Millis(60 * i + 40), (i + 2) * kEpochBytes);
    eng.OnFeedback(h2, (i + 2) * kEpochBytes, t + TimeDelta::Millis(60 * i + 90));
    eng.OnFeedback(h1, (i + 1) * kEpochBytes, t + TimeDelta::Millis(60 * i + 91));
  }
  EXPECT_GT(eng.OutOfOrderFraction(t + TimeDelta::Millis(1200)), 0.0);
  // After the 5 s window passes with no new samples the fraction resets.
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t + TimeDelta::Seconds(7)), 0.0);
}

// Feeds ordering events whose flags are known. InvertedPair logs one
// in-order event then one significant inversion (members sent 40 ms apart,
// feedback order swapped, 90/91 ms after the first send); InOrder logs one
// unflagged event 50 ms after its send.
struct OooFeed {
  MeasurementEngine* eng = nullptr;
  uint64_t next_hash = 1;

  static int64_t Bytes(uint64_t h) { return static_cast<int64_t>(h) * kEpochBytes; }

  void InvertedPair(TimePoint sent) {
    const uint64_t h1 = next_hash++;
    const uint64_t h2 = next_hash++;
    eng->OnBoundarySent(h1, sent, Bytes(h1));
    eng->OnBoundarySent(h2, sent + TimeDelta::Millis(40), Bytes(h2));
    eng->OnFeedback(h2, Bytes(h2), sent + TimeDelta::Millis(90));
    eng->OnFeedback(h1, Bytes(h1), sent + TimeDelta::Millis(91));
  }
  void InOrder(TimePoint sent) {
    const uint64_t h = next_hash++;
    eng->OnBoundarySent(h, sent, Bytes(h));
    eng->OnFeedback(h, Bytes(h), sent + TimeDelta::Millis(50));
  }
};

TEST(MeasurementTest, OooFractionIsExactAsTheWindowExpires) {
  MeasurementEngine eng;
  OooFeed d{&eng};
  const TimePoint t0;
  // Events at 90/91, 150/151, 210/211, 270/271, 330/331 ms (the second of
  // each pair flagged), then twenty unflagged ones at 650..1030 ms: every
  // read below sees at least kMinOooSamples events in the 5 s window.
  for (int i = 0; i < 5; ++i) {
    d.InvertedPair(t0 + TimeDelta::Millis(60 * i));
  }
  for (int i = 0; i < 20; ++i) {
    d.InOrder(t0 + TimeDelta::Millis(600 + 20 * i));
  }
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t0 + TimeDelta::Millis(1100)), 5.0 / 30.0);
  // Events older than 200 ms leave the window: 3 flagged of 26.
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t0 + TimeDelta::Millis(5200)), 3.0 / 26.0);
  // Older than 280 ms: 1 flagged of 22.
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t0 + TimeDelta::Millis(5280)), 1.0 / 22.0);
  // Older than 400 ms: only the twenty unflagged events remain.
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t0 + TimeDelta::Millis(5400)), 0.0);
}

TEST(MeasurementTest, ResetOooHistoryCountsOnlyLaterEvents) {
  MeasurementEngine eng;
  OooFeed d{&eng};
  const TimePoint t0;
  // Ten inverted pairs: kMinOooSamples events, half of them flagged.
  for (int i = 0; i < 10; ++i) {
    d.InvertedPair(t0 + TimeDelta::Millis(60 * i));
  }
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t0 + TimeDelta::Millis(700)), 0.5);
  eng.ResetOooHistory();
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t0 + TimeDelta::Millis(700)), 0.0);
  // Eighteen unflagged events and one inverted pair after the reset: 1 of 20.
  for (int i = 0; i < 18; ++i) {
    d.InOrder(t0 + TimeDelta::Millis(700 + 20 * i));
  }
  d.InvertedPair(t0 + TimeDelta::Millis(1100));
  EXPECT_DOUBLE_EQ(eng.OutOfOrderFraction(t0 + TimeDelta::Millis(1200)), 1.0 / 20.0);
}

TEST(MeasurementTest, SampleCallbackSeesEveryEpoch) {
  MeasurementEngine eng;
  std::vector<EpochSample> seen;
  eng.SetSampleCallback([&](const EpochSample& s) { seen.push_back(s); });
  FeedbackDriver d{&eng};
  for (int i = 0; i < 8; ++i) {
    d.Step(i);
  }
  ASSERT_EQ(seen.size(), 8u);
  // First sample has no previous match, so no rates; later ones do.
  EXPECT_FALSE(seen[0].has_rates);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i].has_rates) << i;
    EXPECT_TRUE(seen[i].in_order) << i;
    EXPECT_NEAR(seen[i].rtt.ToMillis(), 50.0, 0.01) << i;
  }
}

TEST(MeasurementTest, CurrentSafeWithNoData) {
  MeasurementEngine eng;
  BundleMeasurement m = eng.Current(TimePoint::Zero() + TimeDelta::Seconds(1));
  EXPECT_FALSE(m.fresh);
  EXPECT_EQ(m.acked_bytes, 0);
}

// Parameterized sweep: the engine must recover exact RTT and rate on clean
// paths across a grid of rates and delays (the Fig. 5/6 setting).
struct SweepParam {
  int rtt_ms;
  double rate_mbps;
};

class MeasurementSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MeasurementSweepTest, RecoversTruthOnCleanPath) {
  const SweepParam p = GetParam();
  MeasurementEngine eng;
  TimePoint t;
  // Epoch = 0.25 * rtt of bytes at `rate`.
  double epoch_bytes = p.rate_mbps * 1e6 / 8 * (p.rtt_ms / 1000.0) * 0.25;
  TimeDelta gap = TimeDelta::MillisF(p.rtt_ms * 0.25);
  TimePoint last_fb;
  for (int i = 0; i < 40; ++i) {
    TimePoint sent = t + gap * i;
    int64_t bytes = static_cast<int64_t>((i + 1) * epoch_bytes);
    eng.OnBoundarySent(static_cast<uint64_t>(i + 1), sent, bytes);
    last_fb = sent + TimeDelta::Millis(p.rtt_ms);
    eng.OnFeedback(static_cast<uint64_t>(i + 1), bytes, last_fb);
  }
  BundleMeasurement m = eng.Current(last_fb);
  EXPECT_NEAR(m.rtt.ToMillis(), p.rtt_ms, p.rtt_ms * 0.02);
  EXPECT_NEAR(m.send_rate.Mbps(), p.rate_mbps, p.rate_mbps * 0.05);
  EXPECT_NEAR(m.recv_rate.Mbps(), p.rate_mbps, p.rate_mbps * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    RateDelayGrid, MeasurementSweepTest,
    ::testing::Values(SweepParam{20, 24}, SweepParam{20, 96}, SweepParam{50, 24},
                      SweepParam{50, 48}, SweepParam{50, 96}, SweepParam{100, 24},
                      SweepParam{100, 96}, SweepParam{300, 12}),
    [](const auto& tpi) {
      return "rtt" + std::to_string(tpi.param.rtt_ms) + "ms_rate" +
             std::to_string(static_cast<int>(tpi.param.rate_mbps)) + "mbps";
    });

}  // namespace
}  // namespace bundler
