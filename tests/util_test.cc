// Unit tests for src/util: time/rate arithmetic, hashing, statistics,
// windowed filters, FFT, time series, random streams.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <set>
#include <utility>
#include <vector>

#include "src/util/fft.h"
#include "src/util/fnv.h"
#include "src/util/interval_set.h"
#include "src/util/random.h"
#include "src/util/rate.h"
#include "src/util/ring_buffer.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/time.h"
#include "src/util/timeseries.h"
#include "src/util/windowed_filter.h"

namespace bundler {
namespace {

TEST(TimeDeltaTest, FactoryAndConversions) {
  EXPECT_EQ(TimeDelta::Millis(5).nanos(), 5'000'000);
  EXPECT_EQ(TimeDelta::Micros(7).nanos(), 7'000);
  EXPECT_EQ(TimeDelta::Seconds(2).nanos(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(TimeDelta::Millis(1500).ToSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(TimeDelta::Micros(1500).ToMillis(), 1.5);
}

TEST(TimeDeltaTest, Arithmetic) {
  TimeDelta a = TimeDelta::Millis(10);
  TimeDelta b = TimeDelta::Millis(4);
  EXPECT_EQ((a + b).ToMillis(), 14.0);
  EXPECT_EQ((a - b).ToMillis(), 6.0);
  EXPECT_EQ((a * 2.5).ToMillis(), 25.0);
  EXPECT_EQ((a / 2).ToMillis(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
  EXPECT_EQ(-a, TimeDelta::Millis(-10));
}

TEST(TimeDeltaTest, InfiniteIsSticky) {
  EXPECT_TRUE(TimeDelta::Infinite().IsInfinite());
  EXPECT_FALSE(TimeDelta::Seconds(100000).IsInfinite());
  EXPECT_EQ(TimeDelta::Infinite().ToString(), "+inf");
}

TEST(TimePointTest, OffsetArithmetic) {
  TimePoint t = TimePoint::Zero() + TimeDelta::Seconds(1);
  EXPECT_EQ(t.nanos(), 1'000'000'000);
  EXPECT_EQ((t + TimeDelta::Millis(500)).ToSeconds(), 1.5);
  EXPECT_EQ((t - TimePoint::Zero()).ToSeconds(), 1.0);
  EXPECT_LT(TimePoint::Zero(), t);
}

TEST(RateTest, ConversionsRoundTrip) {
  Rate r = Rate::Mbps(96);
  EXPECT_DOUBLE_EQ(r.bps(), 96e6);
  EXPECT_DOUBLE_EQ(r.Mbps(), 96.0);
  EXPECT_DOUBLE_EQ(r.BytesPerSecond(), 12e6);
  EXPECT_DOUBLE_EQ(Rate::BytesPerSec(12e6).Mbps(), 96.0);
}

TEST(RateTest, TransmitTime) {
  // 1500 bytes at 96 Mbit/s = 125 us.
  EXPECT_EQ(Rate::Mbps(96).TransmitTime(1500).ToMicros(), 125.0);
  EXPECT_TRUE(Rate::Zero().TransmitTime(1).IsInfinite());
}

TEST(RateTest, TransmitTimeSaturatesInsteadOfOverflowing) {
  EXPECT_TRUE(Rate::Zero().TransmitTime(1500).IsInfinite());
  EXPECT_TRUE(Rate::BitsPerSec(1e-12).TransmitTime(1500).IsInfinite());
  EXPECT_FALSE(Rate::BitsPerSec(1.0).TransmitTime(1500).IsInfinite());
  EXPECT_GT(Rate::BitsPerSec(1e-12).TransmitTime(1500), TimeDelta::Seconds(1));
}

TEST(RateTest, FromBytesAndTime) {
  Rate r = Rate::FromBytesAndTime(12'000'000, TimeDelta::Seconds(1));
  EXPECT_DOUBLE_EQ(r.Mbps(), 96.0);
  EXPECT_TRUE(Rate::FromBytesAndTime(100, TimeDelta::Zero()).IsZero());
}

TEST(FnvTest, MatchesReferenceVectors) {
  // Reference FNV-1a 64-bit test vectors.
  const uint8_t empty[] = {0};
  EXPECT_EQ(Fnv1a64(empty, 0), 14695981039346656037ULL);
  const uint8_t a[] = {'a'};
  EXPECT_EQ(Fnv1a64(a, 1), 0xaf63dc4c8601ec8cULL);
}

TEST(FnvTest, ValueHashingIsOrderSensitive) {
  uint64_t fields1[] = {1, 2};
  uint64_t fields2[] = {2, 1};
  EXPECT_NE(Fnv1a64Combine(fields1, 2), Fnv1a64Combine(fields2, 2));
}

TEST(FnvTest, DistributionOverLowBits) {
  // Boundary detection masks low bits; sequential inputs must spread evenly.
  int hits = 0;
  const int kN = 1 << 16;
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t fields[] = {i, 42, 443};
    if ((Fnv1a64Combine(fields, 3) & 0xF) == 0) {
      ++hits;
    }
  }
  double frac = static_cast<double>(hits) / kN;
  EXPECT_NEAR(frac, 1.0 / 16.0, 0.01);
}

TEST(RunningStatsTest, MomentsMatchClosedForm) {
  RunningStats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.Variance(), 841.666, 0.01);
}

TEST(QuantileEstimatorTest, ExactQuantiles) {
  QuantileEstimator q;
  for (int i = 100; i >= 1; --i) {
    q.Add(i);
  }
  EXPECT_DOUBLE_EQ(q.Min(), 1.0);
  EXPECT_DOUBLE_EQ(q.Max(), 100.0);
  EXPECT_DOUBLE_EQ(q.Median(), 50.5);
  EXPECT_NEAR(q.Quantile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(q.Mean(), 50.5);
}

TEST(QuantileEstimatorTest, FractionWithinAbs) {
  QuantileEstimator q;
  q.AddAll({-3.0, -1.0, 0.0, 0.5, 2.0});
  EXPECT_DOUBLE_EQ(q.FractionWithinAbs(1.0), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(q.FractionWithinAbs(10.0), 1.0);
}

TEST(WindowedFilterTest, MinTracksWindow) {
  WindowedMinFilter<int64_t> f(TimeDelta::Seconds(1));
  TimePoint t;
  f.Update(t, 50);
  f.Update(t + TimeDelta::Millis(100), 30);
  f.Update(t + TimeDelta::Millis(200), 40);
  EXPECT_EQ(f.Get(), 30);
  // After the 30 sample ages out, the best remaining is 40.
  f.Update(t + TimeDelta::Millis(1150), 45);
  EXPECT_EQ(f.Get(), 40);
  f.Update(t + TimeDelta::Millis(1250), 60);
  EXPECT_EQ(f.Get(), 45);
}

TEST(WindowedFilterTest, MaxTracksWindow) {
  WindowedMaxFilter<double> f(TimeDelta::Seconds(1));
  TimePoint t;
  f.Update(t, 10.0);
  f.Update(t + TimeDelta::Millis(10), 5.0);
  EXPECT_DOUBLE_EQ(f.Get(), 10.0);
  f.Update(t + TimeDelta::Millis(1500), 2.0);
  EXPECT_DOUBLE_EQ(f.Get(), 2.0);
}

TEST(FftTest, DetectsPureTone) {
  const size_t kN = 512;
  const int kBin = 26;
  std::vector<double> signal(kN);
  for (size_t i = 0; i < kN; ++i) {
    signal[i] = std::sin(2.0 * std::numbers::pi * kBin * i / kN);
  }
  std::vector<double> mags = RealFftMagnitudes(signal);
  // Energy concentrates at kBin.
  size_t argmax = 1;
  for (size_t k = 1; k < mags.size(); ++k) {
    if (mags[k] > mags[argmax]) {
      argmax = k;
    }
  }
  EXPECT_EQ(argmax, static_cast<size_t>(kBin));
  EXPECT_NEAR(mags[kBin], kN / 2.0, 1e-6);
}

TEST(FftTest, LinearityAndDc) {
  std::vector<double> signal(64, 3.0);
  std::vector<double> mags = RealFftMagnitudes(signal);
  EXPECT_NEAR(mags[0], 64 * 3.0, 1e-9);
  for (size_t k = 1; k < mags.size(); ++k) {
    EXPECT_NEAR(mags[k], 0.0, 1e-9);
  }
}

TEST(TimeSeriesTest, MeanInRangeAndDownsample) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Add(TimePoint::Zero() + TimeDelta::Millis(i * 100), i);
  }
  EXPECT_DOUBLE_EQ(ts.MeanInRange(TimePoint::Zero(), TimePoint::Zero() + TimeDelta::Millis(500)),
                   2.0);  // samples 0..4
  auto buckets = ts.Downsample(TimeDelta::Millis(500));
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].value, 2.0);
  EXPECT_DOUBLE_EQ(buckets[1].value, 7.0);
  EXPECT_DOUBLE_EQ(ts.MaxValue(), 9.0);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng c(8);
  EXPECT_NE(Rng(7).NextU64(), c.NextU64());
}

TEST(RngTest, ExponentialMean) {
  Rng rng(3);
  double sum = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.NextExponential(2.0);
  }
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(RngTest, WeightedChoice) {
  Rng rng(5);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    if (rng.NextWeighted(weights) == 1) {
      ++ones;
    }
  }
  EXPECT_NEAR(static_cast<double>(ones) / kN, 0.75, 0.02);
}

TEST(TableTest, FormatsNumbers) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
}

TEST(RingBufferTest, FifoOrderAcrossGrowthAndWraparound) {
  RingBuffer<int> ring;
  EXPECT_TRUE(ring.empty());
  // Interleave pushes and pops so head walks around the ring while the
  // buffer grows past its initial capacity several times.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 7; ++i) {
      ring.push_back(next_push++);
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(ring.front(), next_pop);
      EXPECT_EQ(ring.pop_front(), next_pop++);
    }
  }
  EXPECT_EQ(ring.size(), 400u);
  while (!ring.empty()) {
    EXPECT_EQ(ring.pop_front(), next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingBufferTest, PopBackTrimsTheTail) {
  RingBuffer<int> ring;
  for (int i = 0; i < 10; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(ring.back(), 9);
  EXPECT_EQ(ring.pop_back(), 9);
  EXPECT_EQ(ring.pop_front(), 0);
  EXPECT_EQ(ring.back(), 8);
  EXPECT_EQ(ring.size(), 8u);
}

TEST(RingBufferTest, MoveOnlyElementsAndContainerMove) {
  RingBuffer<std::unique_ptr<int>> ring;
  for (int i = 0; i < 40; ++i) {
    ring.push_back(std::make_unique<int>(i));
  }
  RingBuffer<std::unique_ptr<int>> moved = std::move(ring);
  EXPECT_EQ(moved.size(), 40u);
  EXPECT_EQ(*moved.pop_front(), 0);
  EXPECT_EQ(*moved.pop_back(), 39);
  moved.clear();
  EXPECT_TRUE(moved.empty());
  // A cleared ring is reusable without reallocating.
  size_t cap = moved.capacity();
  moved.push_back(std::make_unique<int>(7));
  EXPECT_EQ(moved.capacity(), cap);
  EXPECT_EQ(*moved.back(), 7);
}

TEST(RingBufferTest, SteadyStateDoesNotReallocate) {
  RingBuffer<int> ring;
  for (int i = 0; i < 48; ++i) {  // below the grown capacity
    ring.push_back(i);
  }
  size_t cap = ring.capacity();
  ASSERT_GT(cap, 48u);
  for (int i = 0; i < 10000; ++i) {
    ring.push_back(i);
    (void)ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), cap);
  EXPECT_EQ(ring.size(), 48u);
}

TEST(RingBufferTest, IndexedAccessFollowsFront) {
  RingBuffer<int> ring;
  for (int i = 0; i < 20; ++i) {
    ring.push_back(i);
  }
  for (int i = 0; i < 7; ++i) {
    (void)ring.pop_front();
  }
  ASSERT_EQ(ring.size(), 13u);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) + 7);
  }
  EXPECT_EQ(ring[0], ring.front());
  EXPECT_EQ(ring[ring.size() - 1], ring.back());
}

TEST(RingBufferTest, CopyPreservesOrderAndIndependence) {
  RingBuffer<int> ring;
  for (int i = 0; i < 30; ++i) {
    ring.push_back(i);
  }
  for (int i = 0; i < 10; ++i) {
    (void)ring.pop_front();  // force a wrapped layout
    ring.push_back(100 + i);
  }
  RingBuffer<int> copy = ring;
  ASSERT_EQ(copy.size(), ring.size());
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(copy[i], ring[i]);
  }
  copy.push_back(-1);
  EXPECT_EQ(copy.size(), ring.size() + 1);
}

TEST(RingBufferTest, EraseKeepsOrderOnEitherSide) {
  // Wrapped layout, then erase near the front, near the back and at both
  // ends, checking against a vector model after each step.
  RingBuffer<int> ring;
  std::vector<int> model;
  for (int i = 0; i < 24; ++i) {
    ring.push_back(i);
  }
  for (int i = 0; i < 10; ++i) {
    (void)ring.pop_front();
    ring.emplace_back(100 + i);
  }
  for (size_t i = 0; i < ring.size(); ++i) {
    model.push_back(ring[i]);
  }
  for (size_t at : {size_t{2}, size_t{19}, size_t{0}, size_t{20}, size_t{9}}) {
    ring.erase(at);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
    ASSERT_EQ(ring.size(), model.size());
    for (size_t i = 0; i < model.size(); ++i) {
      EXPECT_EQ(ring[i], model[i]) << "after erase(" << at << ")";
    }
  }
}

TEST(SeqIntervalSetTest, MatchesSetModelUnderRandomInsertAndDrain) {
  // The receiver's out-of-order buffer: mirror the interval representation
  // against a plain std::set under random insert / contains / drain churn.
  Rng rng(5);
  SeqIntervalSet iv;
  std::set<int64_t> ref;
  int64_t cum = 0;
  for (int step = 0; step < 50000; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.70) {
      int64_t seq = cum + 1 + static_cast<int64_t>(rng.NextU64() % 64);
      EXPECT_EQ(iv.Insert(seq), ref.insert(seq).second) << "step " << step;
    } else if (roll < 0.9) {
      int64_t probe = cum + static_cast<int64_t>(rng.NextU64() % 70);
      EXPECT_EQ(iv.Contains(probe), ref.contains(probe)) << "step " << step;
    } else {
      // Drain as TcpReceiver does when the next expected segment arrives.
      ++cum;
      int64_t got = iv.DrainContiguousFrom(cum);
      auto it = ref.begin();
      while (it != ref.end() && *it == cum) {
        ++cum;
        it = ref.erase(it);
      }
      EXPECT_EQ(got, cum) << "step " << step;
      // Anything at or below the cumulative point is gone on both sides.
      EXPECT_FALSE(iv.Contains(cum)) << "step " << step;
    }
    EXPECT_EQ(iv.size(), static_cast<int64_t>(ref.size())) << "step " << step;
  }
}

TEST(SeqIntervalSetTest, AdjacentInsertsCoalesce) {
  SeqIntervalSet iv;
  EXPECT_TRUE(iv.Insert(10));
  EXPECT_TRUE(iv.Insert(12));
  EXPECT_EQ(iv.interval_count(), 2u);
  EXPECT_TRUE(iv.Insert(11));  // bridges [10,11) and [12,13)
  EXPECT_EQ(iv.interval_count(), 1u);
  EXPECT_EQ(iv.interval(0).lo, 10);
  EXPECT_EQ(iv.interval(0).hi, 13);
  EXPECT_FALSE(iv.Insert(11));  // duplicate
  EXPECT_EQ(iv.DrainContiguousFrom(9), 9);    // not contiguous: untouched
  EXPECT_EQ(iv.DrainContiguousFrom(10), 13);  // consumes the run
  EXPECT_TRUE(iv.empty());
}

}  // namespace
}  // namespace bundler
